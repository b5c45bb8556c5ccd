//! Golden pin of the quantum kernel (`SimProcessor::execute_quantum`,
//! shared by `step` and `advance_busy_quanta`).
//!
//! 200 quanta of a deliberately mixed regime: CF 1.9 GHz (so APERF and
//! MPERF tick apart), UF 1.2 GHz (bandwidth overload > 1), one core
//! under DDCM at duty 4/16, one core the workload never feeds, short
//! chunks that finish mid-quantum beside long ones that carry over for
//! many quanta, zero-miss chunks, and random "nothing for you right
//! now" parks. Every exact observable is compared bit for bit against
//! a golden table recorded from a kernel that ran the general slicing
//! loop for every core, so any restructuring of the kernel must keep
//! each IEEE operation and every reduction order: package energy,
//! instructions, per-core `FIXED_CTR0`/`APERF`/`MPERF`, both TOR
//! counters, every `last_quantum()` field, and the `(core, now_ns)`
//! tape of `next_chunk` calls (which pins the core rotation order).

use simproc::engine::{Chunk, SimProcessor, Workload};
use simproc::freq::{Freq, HASWELL_2650V3};
use simproc::msr::{
    MsrFile, IA32_APERF, IA32_CLOCK_MODULATION, IA32_FIXED_CTR0, IA32_MPERF,
    SIM_TOR_INSERT_MISS_LOCAL, SIM_TOR_INSERT_MISS_REMOTE,
};
use simproc::perf::CostProfile;

/// The core under duty-cycle modulation.
const DDCM_CORE: usize = 3;
/// The core the workload never feeds.
const STARVED_CORE: usize = 19;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// One shared generator, drawn in call order, so the chunk stream
/// itself depends on the order in which cores ask for work.
struct Mixed {
    rng: Lcg,
    /// FNV-1a over the `(core, now_ns)` of every `next_chunk` call.
    tape_hash: u64,
    tape_len: u64,
}

impl Mixed {
    fn new(seed: u64) -> Self {
        Mixed {
            rng: Lcg(seed),
            tape_hash: 0xcbf2_9ce4_8422_2325,
            tape_len: 0,
        }
    }

    fn record(&mut self, core: usize, now_ns: u64) {
        for word in [core as u64, now_ns] {
            for byte in word.to_le_bytes() {
                self.tape_hash ^= u64::from(byte);
                self.tape_hash = self.tape_hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        self.tape_len += 1;
    }
}

impl Workload for Mixed {
    fn next_chunk(&mut self, core: usize, now_ns: u64) -> Option<Chunk> {
        self.record(core, now_ns);
        if core == STARVED_CORE {
            return None;
        }
        let streaming = CostProfile::new(0.55, 12.0);
        let compute = CostProfile::new(1.0, 6.0);
        let r = &mut self.rng;
        match r.next() % 8 {
            // Nothing right now: the core parks for the rest of the quantum.
            0 => None,
            // Short memory chunks: finish mid-quantum.
            1 | 2 => {
                let instr = r.range(20_000, 200_000);
                Some(Chunk::new(instr, instr / 18, instr / 120).with_profile(streaming))
            }
            // Short zero-miss chunk.
            3 => Some(Chunk::new(r.range(50_000, 500_000), 0, 0).with_profile(compute)),
            // Long zero-miss chunk: carries over for a few quanta.
            4 => Some(Chunk::new(r.range(5_000_000, 40_000_000), 0, 0).with_profile(compute)),
            // Long memory chunks: carry over for many quanta.
            _ => {
                let instr = r.range(2_000_000, 20_000_000);
                Some(Chunk::new(instr, instr / 18, instr / 125).with_profile(streaming))
            }
        }
    }

    fn is_done(&self) -> bool {
        false
    }
}

fn observe(p: &SimProcessor, wl: &Mixed) -> Vec<(String, u64)> {
    let mut out = vec![
        ("now_ns".to_string(), p.now_ns()),
        ("stepped_quanta".to_string(), p.stepped_quanta()),
        ("busy_advanced_quanta".to_string(), p.busy_advanced_quanta()),
        (
            "total_energy_joules".to_string(),
            p.total_energy_joules().to_bits(),
        ),
        (
            "total_instructions".to_string(),
            p.total_instructions().to_bits(),
        ),
        (
            "tor_local".to_string(),
            p.msr_read(SIM_TOR_INSERT_MISS_LOCAL).unwrap(),
        ),
        (
            "tor_remote".to_string(),
            p.msr_read(SIM_TOR_INSERT_MISS_REMOTE).unwrap(),
        ),
    ];
    let q = p.last_quantum();
    for (name, v) in [
        ("last.power_watts", q.power_watts),
        ("last.achieved_bw", q.achieved_bw),
        ("last.overload", q.overload),
        ("last.mean_util", q.mean_util),
        ("last.instructions", q.instructions),
    ] {
        out.push((name.to_string(), v.to_bits()));
    }
    out.push(("tape_len".to_string(), wl.tape_len));
    out.push(("tape_hash".to_string(), wl.tape_hash));
    for core in 0..p.n_cores() {
        for (name, addr) in [
            ("fixed_ctr0", IA32_FIXED_CTR0),
            ("aperf", IA32_APERF),
            ("mperf", IA32_MPERF),
        ] {
            out.push((
                format!("core{core}.{name}"),
                p.msr_read_core(core, addr).unwrap(),
            ));
        }
    }
    out
}

/// Recorded from the general-loop kernel; see the module doc.
const GOLDEN: &[(&str, u64)] = &[
    ("now_ns", 0x000000000bebc200),
    ("stepped_quanta", 0x0000000000000078),
    ("busy_advanced_quanta", 0x0000000000000050),
    ("total_energy_joules", 0x4020f8a1726b6408),
    ("total_instructions", 0x41e2e2595b0f0126),
    ("tor_local", 0x00000000051c8136),
    ("tor_remote", 0x0000000000bc7b3c),
    ("last.power_watts", 0x40444a50f5580518),
    ("last.achieved_bw", 0x421c940c9592a2e4),
    ("last.overload", 0x40044423fcc616ad),
    ("last.mean_util", 0x3fc4a373bf6ebcad),
    ("last.instructions", 0x4162033bfad146b7),
    ("tape_len", 0x000000000000026e),
    ("tape_hash", 0x486236a66bcd336b),
    ("core0.fixed_ctr0", 0x0000000005d7b2d7),
    ("core0.aperf", 0x00000000167e7288),
    ("core0.mperf", 0x000000001b3ac08a),
    ("core1.fixed_ctr0", 0x00000000078ca8d4),
    ("core1.aperf", 0x00000000162816e8),
    ("core1.mperf", 0x000000001ad236ad),
    ("core2.fixed_ctr0", 0x000000000d645976),
    ("core2.aperf", 0x00000000166d9d10),
    ("core2.mperf", 0x000000001b265fd1),
    ("core3.fixed_ctr0", 0x00000000041237a8),
    ("core3.aperf", 0x0000000016850703),
    ("core3.mperf", 0x000000001b42b7a5),
    ("core4.fixed_ctr0", 0x0000000008eb7d13),
    ("core4.aperf", 0x00000000164fe882),
    ("core4.mperf", 0x000000001b026a4d),
    ("core5.fixed_ctr0", 0x0000000009632543),
    ("core5.aperf", 0x00000000167f0a46),
    ("core5.mperf", 0x000000001b3b7839),
    ("core6.fixed_ctr0", 0x0000000005c87a4d),
    ("core6.aperf", 0x0000000016544f0a),
    ("core6.mperf", 0x000000001b07bdff),
    ("core7.fixed_ctr0", 0x000000000a7fa8e8),
    ("core7.aperf", 0x0000000016a65700),
    ("core7.mperf", 0x000000001b6b0b00),
    ("core8.fixed_ctr0", 0x0000000008fa6cd1),
    ("core8.aperf", 0x00000000169ed3b3),
    ("core8.mperf", 0x000000001b61f2cb),
    ("core9.fixed_ctr0", 0x0000000008c4fa25),
    ("core9.aperf", 0x0000000016904ab7),
    ("core9.mperf", 0x000000001b505a72),
    ("core10.fixed_ctr0", 0x000000000779381f),
    ("core10.aperf", 0x00000000168742d7),
    ("core10.mperf", 0x000000001b456bdc),
    ("core11.fixed_ctr0", 0x00000000076f223a),
    ("core11.aperf", 0x000000001694cb41),
    ("core11.mperf", 0x000000001b55cda0),
    ("core12.fixed_ctr0", 0x000000000792da27),
    ("core12.aperf", 0x0000000016895920),
    ("core12.mperf", 0x000000001b47f2a0),
    ("core13.fixed_ctr0", 0x000000000892c60d),
    ("core13.aperf", 0x0000000016915e4c),
    ("core13.mperf", 0x000000001b51a80b),
    ("core14.fixed_ctr0", 0x0000000007c81ced),
    ("core14.aperf", 0x000000001668925b),
    ("core14.mperf", 0x000000001b204560),
    ("core15.fixed_ctr0", 0x0000000005c25d70),
    ("core15.aperf", 0x000000001638447c),
    ("core15.mperf", 0x000000001ae5cc2a),
    ("core16.fixed_ctr0", 0x0000000006b8e159),
    ("core16.aperf", 0x00000000166a7682),
    ("core16.mperf", 0x000000001b228f75),
    ("core17.fixed_ctr0", 0x000000000979ece1),
    ("core17.aperf", 0x0000000016775b4a),
    ("core17.mperf", 0x000000001b322b24),
    ("core18.fixed_ctr0", 0x0000000007166e61),
    ("core18.aperf", 0x00000000163f7c91),
    ("core18.mperf", 0x000000001aee8951),
    ("core19.fixed_ctr0", 0x0000000000000000),
    ("core19.aperf", 0x0000000000000000),
    ("core19.mperf", 0x0000000000000000),
];

#[test]
fn mixed_regime_matches_golden_bits() {
    let mut p = SimProcessor::new(HASWELL_2650V3.clone());
    p.set_core_freq(Freq(19));
    p.set_uncore_freq(Freq(12));
    p.msr_write_core(
        DDCM_CORE,
        IA32_CLOCK_MODULATION,
        MsrFile::encode_clock_modulation(4),
    )
    .unwrap();
    let mut wl = Mixed::new(0x5EED_0014);

    // Stepped and busy-advanced stretches alternate, so both callers of
    // the kernel are pinned.
    for _ in 0..2 {
        for _ in 0..60 {
            p.step(&mut wl);
        }
        assert_eq!(p.advance_busy_quanta(&mut wl, 40), 40);
    }
    assert!(
        p.last_quantum().overload > 1.0,
        "UF 1.2 GHz must run in bandwidth overload"
    );

    let actual = observe(&p, &wl);
    let table: String = actual
        .iter()
        .map(|(k, v)| format!("    (\"{k}\", {v:#018x}),\n"))
        .collect();
    assert_eq!(actual.len(), GOLDEN.len(), "golden table:\n{table}");
    for ((name, got), (want_name, want)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "golden table:\n{table}");
        assert_eq!(
            got, want,
            "{name}: {got:#018x} != golden {want:#018x}; golden table:\n{table}"
        );
    }
}
