//! Values the benchmark pins: the `collect` scenario matrix with each
//! pass's expected collector counts and reference count, and the
//! reference counts of the five programs at scale 1 with no collector (the
//! `grid-cold` and `warm-analysis` scenarios). They were read off the
//! unwrapped VM (`WorkloadInstance::run` with a 64 KB/32 B `Cache` sink) at
//! the commit that added the benchmark; a change that moves any of them
//! changes what the programs do, not how fast they run.

use cachegc_core::CollectorSpec;
use cachegc_workloads::Workload;

/// The scale `collect` runs its programs at: the scale the e14 zoo sizes
/// its heaps for, where every design collects on `lambda`. It is also the
/// golden scale, so the no-GC passes are the other workloads' scenarios.
pub const COLLECT_SCALE: u32 = 1;

/// The collector designs of the e14 zoo, plus `None` (no collection).
pub const COLLECT_SPECS: [Option<CollectorSpec>; 6] = [
    None,
    Some(CollectorSpec::Cheney {
        semispace_bytes: 2 << 20,
    }),
    Some(CollectorSpec::Generational {
        nursery_bytes: 256 << 10,
        old_bytes: 24 << 20,
    }),
    Some(CollectorSpec::Generational {
        nursery_bytes: 1 << 20,
        old_bytes: 24 << 20,
    }),
    Some(CollectorSpec::Immix {
        heap_bytes: 4 << 20,
    }),
    Some(CollectorSpec::MarkSweep {
        heap_bytes: 4 << 20,
    }),
];

/// What one `collect` pass must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectPin {
    /// Collections the collector ran.
    pub collections: u64,
    /// Bytes of live data it copied.
    pub bytes_copied: u64,
    /// Data references the run made (program and collector).
    pub refs: u64,
}

const fn pin(collections: u64, bytes_copied: u64, refs: u64) -> CollectPin {
    CollectPin {
        collections,
        bytes_copied,
        refs,
    }
}

/// Pins in [`Workload::ALL`] × [`COLLECT_SPECS`] order.
const COLLECT_PINS: [[CollectPin; 6]; 5] = [
    // compile
    [
        pin(0, 0, 24_486_194),
        pin(3, 230_684, 24_731_906),
        pin(27, 1_596_828, 25_956_698),
        pin(6, 574_176, 25_011_252),
        pin(1, 0, 24_530_009),
        pin(1, 0, 24_852_535),
    ],
    // prove
    [
        pin(0, 0, 2_027_657),
        pin(0, 0, 2_027_657),
        pin(1, 3_368, 2_030_820),
        pin(0, 0, 2_027_657),
        pin(0, 0, 2_027_657),
        pin(0, 0, 2_027_657),
    ],
    // lambda
    [
        pin(0, 0, 22_187_068),
        pin(2, 129_752, 22_321_792),
        pin(20, 185_324, 22_365_383),
        pin(5, 135_264, 22_314_543),
        pin(1, 0, 22_221_307),
        pin(1, 0, 22_564_381),
    ],
    // nbody
    [
        pin(0, 0, 16_241_922),
        pin(4, 153_660, 16_376_854),
        pin(35, 76_400, 16_305_906),
        pin(8, 68_360, 16_297_863),
        pin(2, 0, 16_266_607),
        pin(2, 0, 16_888_209),
    ],
    // rewrite
    [
        pin(0, 0, 5_382_548),
        pin(0, 0, 5_382_548),
        pin(6, 256_564, 5_623_407),
        pin(1, 57_432, 5_437_724),
        pin(0, 0, 5_380_592),
        pin(0, 0, 5_382_548),
    ],
];

fn program_index(w: Workload) -> usize {
    Workload::ALL
        .iter()
        .position(|&x| x == w)
        .expect("every workload is in ALL")
}

/// One `collect` scenario: a program under one collector design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectScenario {
    /// The program.
    pub workload: Workload,
    /// The collector, or `None` for no collection.
    pub spec: Option<CollectorSpec>,
    /// What the pass must reproduce.
    pub pin: CollectPin,
}

/// The 30 `collect` scenarios in registry order.
pub fn collect_scenarios() -> Vec<CollectScenario> {
    Workload::ALL
        .iter()
        .flat_map(|&workload| {
            COLLECT_SPECS
                .iter()
                .enumerate()
                .map(move |(j, &spec)| CollectScenario {
                    workload,
                    spec,
                    pin: COLLECT_PINS[program_index(workload)][j],
                })
        })
        .collect()
}

/// The references `w` makes at scale 1 with no collector: its pinned
/// no-GC `collect` pass.
pub fn scale1_refs(w: Workload) -> u64 {
    COLLECT_PINS[program_index(w)][0].refs
}

/// A scenario's label for reports: `program/collector`.
pub fn label(workload: Workload, spec: Option<CollectorSpec>) -> String {
    format!(
        "{}/{}",
        workload.name(),
        spec.map_or_else(|| "none".to_string(), |s| s.name())
    )
}
