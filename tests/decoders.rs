//! Every decoder of outside bytes, fed hostile input.
//!
//! Checkpoints (v1 and v2), dist protocol messages (every tag), encoded
//! gradients (dense and sparse segments), the campaign manifest, the
//! HTTP request parser and the dist frame reader each get every
//! truncation and every single-bit flip of a valid seed blob, seeded
//! random byte strings, and hand-built probes that claim huge counts or
//! lengths. Each call must return `Ok` or the decoder's typed error —
//! never panic or abort — and a counting global allocator checks that
//! its peak heap growth stays within `32 × input + 1 MiB`.
//!
//! The allocator counters are process-wide, so the cases run serially
//! under one lock and each measured peak belongs to one call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use alf::core::block::{AlfBlock, AlfBlockConfig};
use alf::core::checkpoint::{self, TrainerState};
use alf::core::model::{ConvKind, ConvUnit, Unit};
use alf::core::{CnnModel, PruneSchedule};
use alf::dist::protocol::{Fault, Hello, Partials, Reduced, Welcome};
use alf::dist::{
    decode_grad, DistError, FrameStream, GradLayout, Message, WireMetrics, MAGIC, MAX_FRAME,
};
use alf::lab::campaign::{CampaignError, JobRecord, ManifestFile, RecordStatus};
use alf::net::{HttpError, HttpLimits, RequestParser};
use alf::nn::activation::ActivationKind;
use alf::nn::layer::Layer;
use alf::nn::linear::Linear;
use alf::nn::pool::GlobalAvgPool;
use alf::obs::wire::put_frame;
use alf::tensor::init::Init;
use alf::tensor::rng::Rng;

// ---- counting allocator ------------------------------------------------------

struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(n: usize) {
    let now = CURRENT.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(n: usize) {
    CURRENT.fetch_sub(n, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged and only updates
// the counters around it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted as alloc-then-free: a moving realloc briefly holds both.
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Serialises the cases so each measured peak belongs to one call.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs one decoder call on `input`: it must not panic, and its peak heap
/// growth must stay within `32 × input + 1 MiB`.
fn bounded<T>(what: &str, input_len: usize, call: impl FnOnce() -> T) -> T {
    let base = CURRENT.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = catch_unwind(AssertUnwindSafe(call));
    let growth = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    let out = out.unwrap_or_else(|_| panic!("{what}: decoder panicked on {input_len} bytes"));
    let bound = 32 * input_len + (1 << 20);
    assert!(
        growth <= bound,
        "{what}: peak heap grew {growth} bytes on {input_len} input bytes (bound {bound})"
    );
    out
}

// ---- hostile inputs ----------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Feeds `check` every truncation and every single-bit flip of `seed`,
/// then 256 seeded random strings (half of them behind a random-length
/// prefix of `seed`, so they get past magic and tag checks).
fn hostile<R>(seed: &[u8], rng_seed: u64, mut check: impl FnMut(&str, &[u8]) -> R) {
    for cut in 0..seed.len() {
        check("truncation", &seed[..cut]);
    }
    let mut flipped = seed.to_vec();
    for bit in 0..8 * seed.len() {
        flipped[bit / 8] ^= 1 << (bit % 8);
        check("bit flip", &flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    let mut state = rng_seed;
    let mut buf = Vec::new();
    for i in 0..256 {
        buf.clear();
        if i % 2 == 1 {
            let keep = splitmix(&mut state) as usize % (seed.len() + 1);
            buf.extend_from_slice(&seed[..keep]);
        }
        let len = splitmix(&mut state) as usize % (seed.len() + 64);
        buf.extend((0..len).map(|_| splitmix(&mut state) as u8));
        check("random", &buf);
    }
}

const MAGIC_LAB: &[u8; 8] = b"ALFLAB01";

fn le(parts: &[u32]) -> Vec<u8> {
    parts.iter().flat_map(|v| v.to_le_bytes()).collect()
}

// ---- seed material -----------------------------------------------------------

/// A one-block ALF net (3→4 channels, 3×3) with a 2-way classifier:
/// enough structure for every checkpoint section, with blobs of ~2 KiB.
fn tiny_model(seed: u64) -> CnnModel {
    let mut rng = Rng::new(seed);
    let block = AlfBlock::new(3, 4, 3, 1, 1, AlfBlockConfig::paper_default(), &mut rng);
    let units = vec![
        Unit::Conv(ConvUnit::new(
            "conv1",
            ConvKind::Alf(block),
            Some(ActivationKind::Relu),
        )),
        Unit::GlobalPool(GlobalAvgPool::new()),
        Unit::Classifier(Linear::new(4, 2, Init::Xavier, &mut rng)),
    ];
    CnnModel::from_units("tiny", units, 2).unwrap()
}

fn trainer_state(model: &CnnModel) -> TrainerState {
    let mut momentum = Vec::new();
    model.visit_params_ref(&mut |p| momentum.push(alf::tensor::Tensor::full(p.value.dims(), 0.25)));
    TrainerState {
        momentum,
        schedule: PruneSchedule::new(6.0, 0.7),
        epoch: 1,
        step: 2,
        data_seed: 3,
    }
}

/// An encoded gradient for `model` in the `alf_dist::codec` layout:
/// even-numbered multi-row tensors as sparse segments (only row 0 live),
/// the rest dense.
fn mixed_gradient(model: &CnnModel) -> Vec<u8> {
    let mut shapes = Vec::new();
    model.visit_params_ref(&mut |p| shapes.push(p.value.dims().to_vec()));
    let mut wire = Vec::new();
    let mut sparse = 0;
    for (i, dims) in shapes.iter().enumerate() {
        let len: usize = dims.iter().product();
        let rows = dims[0];
        let vals = |n: usize| (0..n).flat_map(|j| (j as f32 * 0.37).sin().to_le_bytes());
        if rows > 1 && i % 2 == 0 {
            sparse += 1;
            wire.push(1u8);
            wire.extend_from_slice(&le(&[1, 1, 0, 1]));
            wire.extend(vals(len / rows));
        } else {
            wire.push(0u8);
            wire.extend(vals(len));
        }
    }
    assert!(sparse > 0 && sparse < shapes.len());
    wire
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A completed-job record payload with one metric and one Pareto point,
/// in the manifest's `TAG_COMPLETED` layout.
fn completed_record(id: &str) -> Vec<u8> {
    let mut p = le(&[1]);
    put_str(&mut p, id);
    p.extend_from_slice(&1.5f64.to_le_bytes());
    p.extend_from_slice(&le(&[1]));
    put_str(&mut p, "acc");
    p.extend_from_slice(&0.75f64.to_le_bytes());
    p.extend_from_slice(&le(&[1]));
    for s in ["cifar", "ALF"] {
        put_str(&mut p, s);
    }
    for v in [100.0f64, 200.0, 0.75] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    put_str(&mut p, id);
    p
}

// ---- the cases ---------------------------------------------------------------

fn checkpoint_cases() {
    let source = tiny_model(1);
    let v1 = checkpoint::save(&source).to_vec();
    let v2 = checkpoint::save_trainer(&source, &trainer_state(&source)).to_vec();
    assert!(v2.len() < 8 << 10, "seed blob is {} bytes", v2.len());
    let mut target = tiny_model(2);
    // Returns whether both loaders rejected the blob.
    let mut check = |what: &str, blob: &[u8]| {
        let results = [
            bounded(what, blob.len(), || checkpoint::load(&mut target, blob)),
            bounded(what, blob.len(), || {
                checkpoint::load_trainer(&mut target, blob).map(|_| ())
            }),
        ];
        for e in results.iter().filter_map(|r| r.as_ref().err()) {
            assert_eq!(e.op(), "checkpoint", "{what}: {e}");
        }
        results.iter().all(Result::is_err)
    };
    assert!(!check("v1 seed", &v1));
    assert!(!check("v2 seed", &v2));
    hostile(&v1, 11, &mut check);
    hostile(&v2, 12, &mut check);
    // Huge counts: the 12-byte tensor-count probe, a huge momentum count,
    // a huge rank and a dims product past usize.
    let mut probes = vec![[b"ALFCKPT1".as_slice(), &le(&[u32::MAX])].concat()];
    let mut momentum = v2[..v1.len()].to_vec();
    momentum.extend_from_slice(&le(&[u32::MAX]));
    probes.push(momentum);
    probes.push([b"ALFCKPT1".as_slice(), &le(&[1, u32::MAX])].concat());
    probes.push([b"ALFCKPT2".as_slice(), &le(&[1, 3, u32::MAX, u32::MAX, 7])].concat());
    for probe in &probes {
        assert!(
            check("probe", probe),
            "probe of {} bytes loaded",
            probe.len()
        );
    }
}

fn protocol_cases() {
    let seeds = [
        Message::Hello(Hello {
            version: 1,
            world: 4,
            rank: 2,
            fingerprint: 0xDEAD_BEEF,
        }),
        Message::Welcome(Welcome {
            version: 1,
            world: 4,
            fingerprint: 7,
        }),
        Message::Partials(Partials {
            epoch: 3,
            step: 11,
            roots: vec![(4, vec![0, 1, 2]), (6, vec![9; 20])],
            losses: vec![0.25, -1.5, 2.0],
            correct: 1,
        }),
        Message::Reduced(Reduced {
            epoch: 3,
            step: 11,
            grad: vec![1, 2, 3, 4, 5, 6, 7, 8],
            loss_sum_bits: 1.75f64.to_bits(),
            correct: 9,
        }),
        Message::Fault(Fault {
            detail: "RankLost: rank 2".into(),
        }),
    ];
    // Returns whether the payload was rejected.
    let mut check = |what: &str, payload: &[u8]| {
        let result = bounded(what, payload.len(), || Message::decode(payload));
        if let Err(e) = &result {
            assert!(
                matches!(e, DistError::ProtocolMismatch { .. }),
                "{what}: {e}"
            );
        }
        result.is_err()
    };
    for (i, msg) in seeds.iter().enumerate() {
        let wire = msg.encode();
        assert_eq!(&Message::decode(&wire).unwrap(), msg);
        hostile(&wire, 20 + i as u64, &mut check);
    }
    let max = u32::MAX;
    let stamp = le(&[3, 0, 11, 0]);
    for probe in [
        [le(&[3]), stamp.clone(), le(&[max])].concat(),
        [le(&[3]), stamp.clone(), le(&[1, 4, max])].concat(),
        [le(&[3]), stamp.clone(), le(&[0, max])].concat(),
        [le(&[4]), stamp, le(&[max])].concat(),
        le(&[5, max]),
    ] {
        assert!(check("probe", &probe));
    }
}

fn codec_cases() {
    let model = tiny_model(3);
    let layout = GradLayout::of_model(&model);
    let wire = mixed_gradient(&model);
    // Returns whether the gradient was rejected.
    let mut check = |what: &str, bytes: &[u8]| {
        let result = bounded(what, bytes.len(), || decode_grad(bytes, &layout));
        if let Err(e) = &result {
            assert!(matches!(e, DistError::FrameCorrupt { .. }), "{what}: {e}");
        }
        result.is_err()
    };
    assert!(!check("seed", &wire));
    hostile(&wire, 30, &mut check);
    // A sparse segment claiming u32::MAX runs.
    let probe = [vec![1u8], le(&[1, u32::MAX])].concat();
    assert!(check("probe", &probe));
}

fn manifest_cases() {
    let path = std::env::temp_dir().join(format!("alf_decoders_{}.manifest", std::process::id()));
    let mut seed = ManifestFile::create(&path, "smoke", "a,b").unwrap();
    seed.append(&JobRecord {
        id: "b".into(),
        status: RecordStatus::Failed {
            error: "boom".into(),
        },
    })
    .unwrap();
    seed.append(&JobRecord {
        id: "a".into(),
        status: RecordStatus::Completed {
            secs: 2.0,
            metrics: BTreeMap::from([("acc".to_string(), 0.5)]),
            pareto: Vec::new(),
        },
    })
    .unwrap();
    drop(seed);
    let mut file = std::fs::read(&path).unwrap();
    put_frame(&mut file, &completed_record("a"));
    std::fs::write(&path, &file).unwrap();
    let reloaded = ManifestFile::load_or_create(&path, "smoke", "a,b", false).unwrap();
    assert_eq!(reloaded.records().len(), 3);
    drop(reloaded);
    let mut header = Vec::new();
    put_str(&mut header, "smoke");
    put_str(&mut header, "a,b");

    // Returns whether the manifest was rejected.
    let mut check = |what: &str, raw: &[u8]| {
        std::fs::write(&path, raw).unwrap();
        let result = bounded(what, raw.len(), || {
            ManifestFile::load_or_create(&path, "smoke", "a,b", false).map(|_| ())
        });
        if let Err(e) = &result {
            assert!(
                matches!(
                    e,
                    CampaignError::Corrupt { .. } | CampaignError::Mismatch { .. }
                ),
                "{what}: {e}"
            );
        }
        result.is_err()
    };
    hostile(&file, 40, &mut check);

    // CRC-valid frames around garbage: as the header, and as a record
    // behind a valid header.
    let mut state = 41u64;
    for i in 0..256 {
        let len = splitmix(&mut state) as usize % 96;
        let garbage: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
        let mut raw = MAGIC_LAB.to_vec();
        if i % 2 == 1 {
            put_frame(&mut raw, &header);
        }
        put_frame(&mut raw, &garbage);
        check("framed garbage", &raw);
    }
    // Records claiming huge counts and lengths.
    let max = u32::MAX;
    let mut probes = Vec::new();
    let mut completed = le(&[1]);
    put_str(&mut completed, "a");
    completed.extend_from_slice(&1.0f64.to_le_bytes());
    probes.push([completed.clone(), le(&[max])].concat());
    probes.push([completed, le(&[0, max])].concat());
    probes.push(le(&[2, max]));
    for record in &probes {
        let mut raw = MAGIC_LAB.to_vec();
        put_frame(&mut raw, &header);
        put_frame(&mut raw, record);
        assert!(check("probe", &raw));
    }
    let _ = std::fs::remove_file(&path);
}

/// Feeds `stream` to one parser, as a keep-alive connection would, until
/// every byte is consumed or the parser rejects it. Returns the number of
/// completed requests and the rejection, if any.
fn parse_stream(stream: &[u8]) -> (usize, Option<HttpError>) {
    let mut parser = RequestParser::new(HttpLimits::default());
    let (mut at, mut requests) = (0, 0);
    while at < stream.len() {
        match parser.feed(&stream[at..]) {
            Ok((used, done)) => {
                assert!(used > 0, "feed made no progress at byte {at}");
                at += used;
                requests += usize::from(done.is_some());
            }
            Err(e) => return (requests, Some(e)),
        }
    }
    (requests, None)
}

fn http_cases() {
    // Two pipelined keep-alive requests: a predict with a body, then a
    // bodyless GET.
    let seed: &[u8] = b"POST /v1/models/m/predict HTTP/1.1\r\nhost: localhost\r\n\
        content-length: 12\r\nx-request-id: 7\r\n\r\n0123456789ab\
        GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n";
    // Returns whether the stream was rejected.
    let check = |what: &str, stream: &[u8]| {
        let (requests, err) = bounded(what, stream.len(), || parse_stream(stream));
        assert!(
            requests <= 2,
            "{what}: {requests} requests from the seed's bytes"
        );
        if let Some(e) = &err {
            let (status, _) = e.status();
            assert!((400..=505).contains(&status), "{what}: {e} -> {status}");
        }
        err.is_some()
    };
    assert_eq!(parse_stream(seed), (2, None));
    for cut in 0..seed.len() {
        assert!(!check("truncation", &seed[..cut]), "a prefix was rejected");
    }
    hostile(seed, 50, &check);
    // Huge declared lengths: past usize, at usize::MAX, one past the body
    // bound, and exactly at it (the largest reservation a request can make).
    // Chunk sizes past any integer width behind `transfer-encoding`.
    let huge = |value: &str| format!("POST /p HTTP/1.1\r\ncontent-length: {value}\r\n\r\n");
    let max_body = HttpLimits::default().max_body_bytes;
    for (probe, rejected) in [
        (huge("99999999999999999999999999"), true),
        (huge(&usize::MAX.to_string()), true),
        (huge(&(max_body + 1).to_string()), true),
        (huge(&max_body.to_string()), false),
        (
            "POST /p HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nffffffffffffffffffff\r\n".into(),
            true,
        ),
        (
            "POST /p HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n7fffffff\r\nab".into(),
            true,
        ),
        ("G".repeat(8 << 10), true),
    ] {
        assert_eq!(check("probe", probe.as_bytes()), rejected, "{probe:.60}");
    }
}

fn dist_frame_case() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The peer claims a MAX_FRAME payload, then hangs up.
    let peer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(MAGIC).unwrap();
        s.write_all(&MAX_FRAME.to_le_bytes()).unwrap();
    });
    let (stream, _) = listener.accept().unwrap();
    peer.join().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = FrameStream::new(stream, 1, WireMetrics::standalone());
    frames.expect_magic().unwrap();
    let received = MAGIC.len() + 4;
    let err = bounded("dist frame", received, || frames.read_frame()).unwrap_err();
    assert!(matches!(err, DistError::RankLost { rank: 1, .. }), "{err}");
}

#[test]
fn decoders_return_typed_errors_within_the_allocation_bound() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    checkpoint_cases();
    protocol_cases();
    codec_cases();
    manifest_cases();
    http_cases();
}

#[test]
fn dist_frame_read_is_bounded_by_the_bytes_received() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    dist_frame_case();
}
