//! The deterministic multi-tenant scheduler: admission control,
//! deadline-aware (EDF) dispatch, cross-tenant wavefront batching
//! over a modeled accelerator fleet — and, since `crescent-serve/v2`,
//! the observe→decide→act hook where the SLO controller
//! ([`crate::controller`]) steps `h_e` per wavefront.
//!
//! # Service model
//!
//! The service hosts one **shared world map** — its own seeded
//! [`FrameStream`] — whose K-d tree is maintained once per service tick
//! through [`maintain_tree_sequence`] (the same honest build/refit cost
//! model the single-stream driver uses). Tick `t` covers modeled cycles
//! `[t·period, (t+1)·period)` and every wavefront dispatched for tick
//! `t` searches tree `t` (maintenance is modeled as double-buffered:
//! its cycles and energy are charged fleet-wide, but the tick's tree is
//! ready at the tick boundary).
//!
//! Each **tenant** is a seeded [`FrameStream`] acting as a query
//! generator: frame `k` of tenant `i` arrives at `k·period + phase_i`
//! and contributes its queries. The scheduler:
//!
//! 1. **admits** a frame iff fewer than `max_backlog` admitted frames
//!    are still queued (rejected frames are recorded, never silently
//!    dropped);
//! 2. picks the pending frame with the **earliest absolute deadline**
//!    (ties: arrival, then tenant, then frame index — fully ordered, so
//!    dispatch is deterministic);
//! 3. consults the knob policy: a static run pins `h_e`; an SLO run
//!    **observes** every frame graded by the dispatch cycle, then
//!    **decides** the wavefront's `h_e` from miss/backlog/storm
//!    pressure ([`Controller::decide`]);
//! 4. batches **every queued frame of the same tick that has already
//!    arrived** into one wavefront (its riders' query segments
//!    concatenated in EDF order) on the earliest-free instance — this
//!    is where cross-tenant top-tree amortization happens — **acting** the
//!    decision through the wavefront's search config
//!    ([`ServiceInstance::replay_wavefront`](crescent_accel::ServiceInstance::replay_wavefront),
//!    run once per distinct wavefront of the context from its riders'
//!    once-traced frames: see [`ServiceContext`]);
//! 5. grades each served frame against its tenant's deadline
//!    ([`deadline_missed`]).
//!
//! A wavefront runs with descendant reuse enabled iff one of its riders
//! is a reuse-scenario tenant — inert at `h_e = 0`, so the exactness
//! invariant below survives.
//!
//! After the drain, each tick's maintenance bill is settled: a static
//! run always pays the spec policy, while an SLO run that was holding
//! `h_e > 0` as a tick began pays whichever policy (spec or its
//! alternate) has the cheaper slot — shedding maintenance cost during
//! the same pressure that ramped elision. Either way the **tree content
//! is identical** (a clean refit provably reproduces the fresh build),
//! so the policy choice moves cycles and energy, never answers.
//!
//! Because the engine is tag-blind (it searches the flat concatenated
//! batch, and the scheduler splits the hits per rider segment
//! afterwards), results at `h_e = 0` are
//! bit-identical to running each tenant alone — co-tenants move
//! *cycles*, never *answers*. The whole simulation is a pure function
//! of `(context, tenants, fleet, h_e, controller)`: no wall-clock, no
//! map ordering, no randomness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crescent::tenant::{mixed_tenants, TenantSpec};
use crescent::workload::FrameStream;
use crescent_accel::{
    maintain_tree_sequence, trace_segment, AcceleratorConfig, CrescentKnobs, Fleet, MaintainedTree,
    MaintenanceCost, StreamSearchConfig, TreeMaintenance,
};
use crescent_explorer::default_workers;
use crescent_explorer::runner::par_map;
use crescent_kdtree::SegmentTrace;
use crescent_memsim::EnergyLedger;
use crescent_pointcloud::{Neighbor, Point3, PointCloud};

use crate::controller::{h_e_in_effect, Controller, ControllerConfig};
use crate::ledger::{
    deadline_missed, digest_results, FrameOutcome, InstanceReport, KnobPoint, ServiceLedger,
    TenantLedger,
};
use crate::memo::{FrameTraces, WaveKey, Wavefront, WavefrontMemo};
use crate::spec::ServeSpec;

/// Sustained DRAM streaming bandwidth of the service operating point,
/// in bytes per cycle (an HBM-class part, 8× the explorer's default
/// LPDDR-class 20.48 B/cycle). The serve layer pins this deliberately:
/// under the default bandwidth every quick-grid wavefront is DMA-bound,
/// so the elision knob `h_e` cannot move latency at all and the SLO
/// controller would have nothing to trade. At this operating point the
/// wavefronts are compute-bound and elision buys real slot cycles.
pub const SERVICE_STREAM_BYTES_PER_CYCLE: f64 = 163.84;

/// The service's accelerator: the default machine at
/// [`SERVICE_STREAM_BYTES_PER_CYCLE`] with aggregation elision on (the
/// ANS+BCE operating point). Every wavefront reads its banking, PE
/// count, DRAM bandwidth and aggregation-elision flag; search elision
/// comes from each wavefront's `h_e` in its search config, so
/// `search_elision` stays unset.
pub fn service_config() -> AcceleratorConfig {
    AcceleratorConfig::builder()
        .aggregation_elision(true)
        .dram_stream_bytes_per_cycle(SERVICE_STREAM_BYTES_PER_CYCLE)
        .build()
        .expect("the default-based service config is valid")
}

/// Everything about a serve spec that does **not** vary across grid
/// points: the maintained map tree sequence, the canonical tenant mix
/// at its largest size, and every tenant's per-tick query sets. Built
/// once ([`ServiceContext::build`]) and shared by reference across the
/// whole grid — a grid point only picks how many tenants, how many
/// instances, which `h_e`, and which knob policy. The build runs as jobs
/// on the worker pool (each map frame's render, both maintenance runs,
/// each tenant's query generation), and is the same at any worker count.
///
/// The context also carries two compute-once caches, both empty at
/// build time (so the build's cost does not grow with them):
///
/// * a **wavefront memo**. Within one context a dispatched wavefront is
///   a pure function of `(tick, h_e, riders in EDF order)`: the tick
///   names the tree and each rider's queries, descendant reuse follows
///   from the riders, and everything else the engine reads is fixed
///   here. So the scheduler simulates each such key once and every
///   later dispatch of it — in any grid point, on any worker — reads the
///   stored latency, energy, counters and neighbor lists. A hit is
///   bit-identical to a fresh simulation;
///   [`ServiceContext::wavefronts_simulated`] counts the misses.
/// * **per-tenant-frame traces**. A memo miss does not route and walk
///   its riders' queries again: each `(tick, tenant)` frame's top-tree
///   routes and sub-tree walks are fixed by geometry, so the frame is
///   traced once, the first time a wavefront it rides misses, and
///   every miss replays its wavefront's arbitration from its riders'
///   traces — bit-identical to simulating the flat batch.
///   [`ServiceContext::frames_traced`] counts the traces.
#[derive(Debug)]
pub struct ServiceContext {
    /// One maintained map tree per service tick (built under the spec's
    /// maintenance policy, which also prices the default bill).
    pub trees: Vec<MaintainedTree>,
    /// Per-tick cost of the *alternate* maintenance policy (refit if
    /// the spec rebuilds, rebuild if the spec refits) — the option the
    /// controller may switch a tick to under pressure. Same trees
    /// either way; only the bill differs.
    pub alt_maintenance: Vec<MaintenanceCost>,
    /// The canonical tenant mix (a grid point uses a prefix).
    pub tenants: Vec<TenantSpec>,
    /// Per-tenant, per-tick query sets.
    pub queries: Vec<Vec<Vec<Point3>>>,
    /// Modeled cycles per service tick.
    pub frame_period: u64,
    /// Admission bound (queued frames).
    pub max_backlog: usize,
    /// Granted top-tree height `h_t`.
    pub top_height: usize,
    /// Search radius (from the tenant base workload).
    pub radius: f32,
    /// Per-query neighbor cap (from the tenant base workload).
    pub max_neighbors: Option<usize>,
    /// The compute-once wavefront memo.
    wavefronts: WavefrontMemo,
    /// The compute-once tenant-frame traces.
    traces: FrameTraces,
}

impl ServiceContext {
    /// Builds the context for `spec` at its largest tenant count, on
    /// [`default_workers`] threads of the worker pool.
    pub fn build(spec: &ServeSpec) -> ServiceContext {
        ServiceContext::build_on(spec, default_workers())
    }

    /// [`ServiceContext::build`] on `workers` threads of the worker pool
    /// ([`par_map`]). Each map frame renders as its own job; then the
    /// spec-policy maintenance, the alternate-policy maintenance and one
    /// query job per tenant run as one more pool, longest first. Every
    /// job is a pure function of the spec and the outputs come back in
    /// job order, so the context is the same at any worker count.
    pub(crate) fn build_on(spec: &ServeSpec, workers: usize) -> ServiceContext {
        let map = FrameStream::new(&spec.map);
        let indices: Vec<usize> = (0..spec.map.num_frames).collect();
        let map_clouds: Vec<PointCloud> = par_map(&indices, workers, |_, &i| map.frame(i).cloud)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        // the world cloud is not needed once its frames are rendered
        drop(map);
        let clouds: Vec<&PointCloud> = map_clouds.iter().collect();
        let alt_policy = alternate_policy(spec.map.maintenance);
        let mut base = spec.tenant_base;
        base.num_frames = spec.map.num_frames;
        let tenants =
            mixed_tenants(spec.max_tenants(), &base, spec.frame_period, spec.base_deadline);

        let mut jobs = vec![BuildJob::Trees, BuildJob::AltCosts];
        jobs.extend(tenants.iter().map(BuildJob::Queries));
        let mut outs = par_map(&jobs, workers, |_, job| match job {
            BuildJob::Trees => BuildOut::Trees(maintain_tree_sequence(
                &clouds,
                spec.map.maintenance,
                spec.top_height,
            )),
            // only the bill is kept: the trees equal the spec policy's
            BuildJob::AltCosts => BuildOut::Costs(
                maintain_tree_sequence(&clouds, alt_policy, spec.top_height)
                    .iter()
                    .map(|t| t.cost)
                    .collect(),
            ),
            BuildJob::Queries(tenant) => {
                BuildOut::Queries(FrameStream::new(&tenant.workload).map(|f| f.queries).collect())
            }
        })
        .into_iter()
        .map(|(out, _)| out);
        let Some(BuildOut::Trees(trees)) = outs.next() else {
            unreachable!("job 0 maintains the spec policy")
        };
        let Some(BuildOut::Costs(alt_maintenance)) = outs.next() else {
            unreachable!("job 1 prices the alternate policy")
        };
        let queries: Vec<Vec<Vec<Point3>>> = outs
            .map(|out| match out {
                BuildOut::Queries(queries) => queries,
                _ => unreachable!("jobs 2.. generate tenant queries"),
            })
            .collect();
        let traces = FrameTraces::new(queries.iter().map(Vec::len));
        ServiceContext {
            trees,
            alt_maintenance,
            tenants,
            queries,
            frame_period: spec.frame_period,
            max_backlog: spec.max_backlog,
            top_height: spec.top_height,
            radius: spec.tenant_base.radius,
            max_neighbors: spec.tenant_base.max_neighbors,
            wavefronts: WavefrontMemo::default(),
            traces,
        }
    }

    /// Number of service ticks.
    pub fn ticks(&self) -> usize {
        self.trees.len()
    }

    /// Distinct wavefronts simulated on this context so far: one per
    /// `(tick, h_e, riders in EDF order)` key any run has dispatched,
    /// however many runs and workers dispatched it.
    pub fn wavefronts_simulated(&self) -> usize {
        self.wavefronts.simulated()
    }

    /// Distinct tenant frames traced on this context so far: one per
    /// `(tick, tenant)` that rode any simulated wavefront, however many
    /// wavefronts, runs and workers it rode in.
    pub fn frames_traced(&self) -> usize {
        self.traces.traced()
    }

    /// `tenant`'s queries of frame `tick`, with their trace on the
    /// tick's tree (traced on first use).
    fn rider(&self, tenant: usize, tick: usize) -> (&[Point3], &SegmentTrace) {
        let queries = &self.queries[tenant][tick];
        let trace = self.traces.get_or_trace(tenant, tick, || {
            trace_segment(&self.trees[tick].tree, queries, self.radius, self.top_height)
        });
        (queries, trace)
    }
}

/// The maintenance policy the controller may switch a tick to: refit if
/// `policy` rebuilds, rebuild if it refits.
fn alternate_policy(policy: TreeMaintenance) -> TreeMaintenance {
    match policy {
        TreeMaintenance::RebuildEveryFrame => TreeMaintenance::refit(),
        TreeMaintenance::Refit { .. } => TreeMaintenance::RebuildEveryFrame,
    }
}

/// One job of the context build's second pool, in the order they run
/// (longest first).
enum BuildJob<'a> {
    /// The map tree sequence under the spec's maintenance policy.
    Trees,
    /// The alternate policy's per-tick maintenance costs.
    AltCosts,
    /// One tenant's per-tick query sets.
    Queries(&'a TenantSpec),
}

/// What a [`BuildJob`] returns: only what the context keeps.
enum BuildOut {
    Trees(Vec<MaintainedTree>),
    Costs(Vec<MaintenanceCost>),
    Queries(Vec<Vec<Point3>>),
}

/// Result of one service run: the ledger plus every tenant's raw
/// neighbor sets (`None` for rejected frames), in tenant-mix order.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The graded service ledger.
    pub ledger: ServiceLedger,
    /// `results[tenant][frame]`: per-query neighbor lists of each
    /// admitted frame, `None` where admission control rejected it.
    pub results: Vec<Vec<Option<Vec<Vec<Neighbor>>>>>,
}

/// One tenant frame queued at the service.
struct Job {
    tenant: usize,
    /// Frame index == service tick of its arrival.
    frame: usize,
    arrival: u64,
    deadline_at: u64,
}

/// Runs the service for the first `tenants` tenants of `ctx` on a
/// fleet of `fleet_size` instances at the **pinned** elision depth
/// `elision_depth` — the `crescent-serve/v1` static path, byte-for-byte.
///
/// Deterministic by construction: a pure function of its arguments.
///
/// # Panics
///
/// Panics if `tenants` exceeds the context's mix or `fleet_size` is 0.
pub fn run_service(
    ctx: &ServiceContext,
    tenants: usize,
    fleet_size: usize,
    elision_depth: usize,
) -> ServiceOutcome {
    run_service_impl(ctx, tenants, fleet_size, elision_depth, None)
}

/// Runs the service under the SLO feedback controller: `h_e` starts at
/// `initial_h_e` (clamped into `cfg`'s band) and is re-decided before
/// every wavefront dispatch; tree maintenance may be re-pointed at the
/// cheaper policy for ticks that began under pressure. As deterministic
/// as [`run_service`] — the controller is pure integer state.
///
/// # Panics
///
/// Panics on the same inputs as [`run_service`], and if `cfg` fails
/// [`ControllerConfig::validate`].
pub fn run_service_controlled(
    ctx: &ServiceContext,
    tenants: usize,
    fleet_size: usize,
    initial_h_e: usize,
    cfg: &ControllerConfig,
) -> ServiceOutcome {
    if let Err(err) = cfg.validate() {
        panic!("invalid controller config: {err}");
    }
    run_service_impl(ctx, tenants, fleet_size, initial_h_e, Some(*cfg))
}

fn run_service_impl(
    ctx: &ServiceContext,
    tenants: usize,
    fleet_size: usize,
    elision_depth: usize,
    control: Option<ControllerConfig>,
) -> ServiceOutcome {
    assert!(tenants <= ctx.tenants.len(), "context holds only {} tenants", ctx.tenants.len());
    assert!(fleet_size >= 1, "a service needs at least one instance");
    let ticks = ctx.ticks();
    let period = ctx.frame_period;

    // ---- arrival schedule ----
    let mut events: Vec<Job> = Vec::with_capacity(tenants * ticks);
    for (ti, t) in ctx.tenants[..tenants].iter().enumerate() {
        for frame in 0..ctx.queries[ti].len().min(ticks) {
            events.push(Job {
                tenant: ti,
                frame,
                arrival: t.arrival_at(frame, period),
                deadline_at: t.deadline_at(frame, period),
            });
        }
    }
    events.sort_by_key(|j| (j.arrival, j.tenant, j.frame));

    // ---- engine configuration ----
    let config = service_config();
    let knobs = CrescentKnobs { top_height: ctx.top_height, ..CrescentKnobs::default() };
    let search = StreamSearchConfig {
        radius: ctx.radius,
        max_neighbors: ctx.max_neighbors,
        elision_depth,
        ..StreamSearchConfig::default()
    };

    // Per-tick maintenance slots under the spec policy: the storm
    // signal (a tick whose maintenance fills a whole period) the
    // controller reads at decide time. Signal only — the bill is
    // settled after the drain, once the knob trajectory is known.
    let spec_slots: Vec<u64> = ctx
        .trees
        .iter()
        .map(|t| t.cost.build_cycles.max(config.dram.stream_cycles(t.cost.build_dram_bytes)))
        .collect();

    // ---- the scheduler loop ----
    let mut controller = control.map(|cfg| Controller::new(cfg, elision_depth));
    let mut fleet = Fleet::new(fleet_size);
    let mut results: Vec<Vec<Option<Vec<Vec<Neighbor>>>>> =
        (0..tenants).map(|ti| vec![None; ctx.queries[ti].len().min(ticks)]).collect();
    let mut outcomes: Vec<Vec<Option<FrameOutcome>>> =
        results.iter().map(|f| vec![None; f.len()]).collect();
    let mut tenant_energy = vec![EnergyLedger::new(); tenants];
    let mut search_energy = EnergyLedger::new();
    let (mut wavefronts, mut shared_wavefronts) = (0usize, 0usize);
    let (mut top_fetches, mut top_fetches_unamortized) = (0u64, 0u64);
    let (mut conflicts_elided, mut nodes_skipped, mut conflict_reuses) = (0u64, 0u64, 0u64);
    let mut knob_trajectory: Vec<KnobPoint> = Vec::new();
    let mut makespan = 0u64;

    let mut pending: Vec<Job> = Vec::new();
    let mut arrivals = events.into_iter().peekable();
    // frames graded but not yet observed by the controller, ordered by
    // completion (ties: tenant, then frame — fully deterministic)
    let mut graded: BinaryHeap<Reverse<(u64, usize, usize, bool)>> = BinaryHeap::new();

    loop {
        // Dispatch while a wavefront would start before the next
        // arrival; otherwise process that arrival first (it may still
        // join the wave, and its admission check must see the backlog
        // as of its arrival time).
        let next_arrival = arrivals.peek().map(|j| j.arrival);
        let mut dispatched = false;
        if !pending.is_empty() {
            let (inst_idx, free) = fleet.earliest_free().expect("fleet is non-empty");
            // deadline-aware dispatch: earliest absolute deadline leads
            let lead = pending
                .iter()
                .enumerate()
                .min_by_key(|(_, j)| (j.deadline_at, j.arrival, j.tenant, j.frame))
                .map(|(i, _)| i)
                .expect("pending is non-empty");
            let tick = pending[lead].frame;
            let start = free.max(pending[lead].arrival);
            let starts_before_next = match next_arrival {
                None => true,
                Some(a) => start < a,
            };
            if starts_before_next {
                // observe → decide: absorb every frame whose wavefront
                // completed by this dispatch cycle (strictly causal),
                // then step h_e from miss/backlog/storm pressure. A
                // static run skips straight to the pinned depth.
                let h_e = match controller.as_mut() {
                    None => elision_depth,
                    Some(c) => {
                        while let Some(&Reverse((done, _, _, missed))) = graded.peek() {
                            if done > start {
                                break;
                            }
                            graded.pop();
                            c.observe(missed);
                        }
                        let storm = spec_slots[tick] >= period;
                        c.decide(pending.len(), storm)
                    }
                };
                // the wavefront: every queued same-tick frame that has
                // arrived by the start cycle, in EDF order
                let mut wave: Vec<Job> = Vec::new();
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].frame == tick && pending[i].arrival <= start {
                        wave.push(pending.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                wave.sort_by_key(|j| (j.deadline_at, j.arrival, j.tenant, j.frame));
                let key = WaveKey { tick, h_e, tenants: wave.iter().map(|j| j.tenant).collect() };
                let instance = fleet.instance_mut(inst_idx);
                let wf = ctx.wavefronts.get_or_simulate(key, || {
                    // act: the decided h_e rides the wavefront's search
                    // config; descendant reuse switches on iff a
                    // reuse-scenario tenant is aboard (inert at h_e = 0)
                    let reuse = wave
                        .iter()
                        .any(|j| ctx.tenants[j.tenant].workload.scenario.descendant_reuse());
                    let wf_search = StreamSearchConfig {
                        elision_depth: h_e,
                        descendant_reuse: reuse,
                        ..search
                    };
                    // the riders' segments in EDF order, each replayed
                    // from its frame's trace
                    let riders: Vec<_> =
                        wave.iter().map(|j| ctx.rider(j.tenant, j.frame)).collect();
                    let (hits, report) = instance.replay_wavefront(
                        &ctx.trees[tick].tree,
                        &riders,
                        &wf_search,
                        knobs,
                        &config,
                    );
                    Wavefront::new(&hits, &report)
                });
                instance.record_wavefront(wf.latency);
                let done = start + wf.latency;
                instance.free_at = done;
                makespan = makespan.max(done);

                let wave_id = wavefronts;
                wavefronts += 1;
                if wave.len() > 1 {
                    shared_wavefronts += 1;
                }
                top_fetches += wf.top_fetches;
                top_fetches_unamortized += wf.top_fetches_unamortized;
                conflicts_elided += wf.conflicts_elided;
                nodes_skipped += wf.nodes_skipped;
                conflict_reuses += wf.conflict_reuses;
                knob_trajectory.push(KnobPoint {
                    wavefront: wave_id,
                    start,
                    h_e,
                    latency: wf.latency,
                });
                search_energy.merge(&wf.energy);
                let total_queries = wf.queries.max(1);
                // the wave's riders own consecutive segments of the batch
                let mut first = 0;
                for job in &wave {
                    let end = first + ctx.queries[job.tenant][job.frame].len();
                    let seg = wf.neighbors(first..end);
                    first = end;
                    let share = seg.len() as f64 / total_queries as f64;
                    tenant_energy[job.tenant].merge(&wf.energy.scaled(share));
                    let latency = done - job.arrival;
                    let missed = deadline_missed(latency, ctx.tenants[job.tenant].deadline_cycles);
                    debug_assert_eq!(missed, done > job.deadline_at);
                    graded.push(Reverse((done, job.tenant, job.frame, missed)));
                    outcomes[job.tenant][job.frame] = Some(FrameOutcome {
                        frame: job.frame,
                        arrival: job.arrival,
                        admitted: true,
                        wavefront: Some(wave_id),
                        instance: Some(inst_idx),
                        start,
                        completion: done,
                        latency,
                        queries: seg.len(),
                        neighbors: seg.iter().map(Vec::len).sum(),
                        missed,
                        h_e,
                    });
                    results[job.tenant][job.frame] = Some(seg);
                }
                debug_assert_eq!(first, wf.queries, "the riders cover the whole batch");
                dispatched = true;
            }
        }
        if !dispatched {
            match arrivals.next() {
                Some(job) => {
                    if pending.len() >= ctx.max_backlog {
                        // rejected at arrival: recorded, never served
                        outcomes[job.tenant][job.frame] = Some(FrameOutcome {
                            frame: job.frame,
                            arrival: job.arrival,
                            admitted: false,
                            wavefront: None,
                            instance: None,
                            start: 0,
                            completion: 0,
                            latency: 0,
                            queries: 0,
                            neighbors: 0,
                            missed: false,
                            h_e: 0,
                        });
                    } else {
                        pending.push(job);
                    }
                }
                None => break,
            }
        }
    }
    debug_assert!(pending.is_empty(), "the drain loop must serve every admitted frame");

    // ---- shared map maintenance (charged fleet-wide) ----
    // Settled after the drain so the controlled path can re-choose a
    // tick's policy from the knob trajectory: a tick that began while
    // the controller held h_e > 0 pays whichever policy has the cheaper
    // slot. Strictly causal (only decisions dispatched before the tick
    // boundary count) and a no-op for static runs, which always pay the
    // spec policy — in the same per-tick order as v1, so the energy
    // sums are bit-identical.
    let traj_pairs: Vec<(u64, usize)> = knob_trajectory.iter().map(|k| (k.start, k.h_e)).collect();
    let mut map_energy = EnergyLedger::new();
    let mut map_build_cycles = 0u64;
    let mut alt_maintenance_ticks = 0usize;
    for (t, tree) in ctx.trees.iter().enumerate() {
        let alt = ctx.alt_maintenance[t];
        let alt_slot = alt.build_cycles.max(config.dram.stream_cycles(alt.build_dram_bytes));
        let under_pressure =
            controller.is_some() && h_e_in_effect(&traj_pairs, t as u64 * period).unwrap_or(0) > 0;
        let (cycles, bytes, slot) = if under_pressure && alt_slot < spec_slots[t] {
            alt_maintenance_ticks += 1;
            (alt.build_cycles, alt.build_dram_bytes, alt_slot)
        } else {
            (tree.cost.build_cycles, tree.cost.build_dram_bytes, spec_slots[t])
        };
        map_energy.charge_dram_streaming(&config.energy, bytes);
        map_energy.charge_tree_build(&config.energy, cycles);
        map_energy.charge_leakage(&config.energy, slot);
        map_build_cycles += slot;
    }

    // ---- ledger assembly ----
    let digest = digest_results(&results);
    let tenant_ledgers: Vec<TenantLedger> = ctx.tenants[..tenants]
        .iter()
        .enumerate()
        .map(|(ti, t)| TenantLedger {
            name: t.name.clone(),
            scenario: t.workload.scenario.label().to_string(),
            arrival_phase: t.arrival_phase,
            deadline_cycles: t.deadline_cycles,
            frames: outcomes[ti]
                .iter()
                .cloned()
                .map(|o| o.expect("every frame is either served or rejected"))
                .collect(),
            energy: tenant_energy[ti],
        })
        .collect();
    let instances = fleet
        .instances()
        .iter()
        .map(|i| InstanceReport {
            wavefronts: i.wavefronts,
            busy_cycles: i.busy_cycles,
            free_at: i.free_at,
        })
        .collect();
    ServiceOutcome {
        ledger: ServiceLedger {
            tenants: tenant_ledgers,
            instances,
            wavefronts,
            shared_wavefronts,
            top_fetches,
            top_fetches_unamortized,
            makespan,
            map_energy,
            search_energy,
            knob_trajectory,
            conflicts_elided,
            nodes_skipped,
            conflict_reuses,
            map_build_cycles,
            alt_maintenance_ticks,
            digest,
        },
        results,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crescent_kdtree::TaggedBatch;

    fn quick_ctx() -> ServiceContext {
        ServiceContext::build(&quick_spec())
    }

    fn quick_spec() -> ServeSpec {
        let mut spec = ServeSpec::quick();
        // shrink for debug-profile unit tests
        spec.map.scene.total_points = 1_500;
        spec.map.num_frames = 4;
        spec.tenant_base.scene.total_points = 600;
        spec.tenant_base.num_frames = 4;
        spec.tenant_base.queries_per_frame = 24;
        // a tempo that queues on one instance (slots are a few hundred
        // cycles at this cloud size) with a backlog deep enough that
        // admission stays fleet-invariant for the digest comparisons
        spec.frame_period = 1_200;
        spec.base_deadline = 1_800;
        spec.max_backlog = 32;
        spec
    }

    /// Every coordinate of one tenant's per-tick queries, as bits.
    fn query_bits(tenant: &[Vec<Point3>]) -> Vec<Vec<[u32; 3]>> {
        tenant
            .iter()
            .map(|tick| {
                tick.iter().map(|q| [q.x.to_bits(), q.y.to_bits(), q.z.to_bits()]).collect()
            })
            .collect()
    }

    /// The context is a pure function of the spec at any worker count,
    /// under either map policy (so both alternate-policy arms run), and
    /// each part lands in its own field: the spec policy's trees, the
    /// alternate policy's costs, each tenant's queries in mix order.
    #[test]
    fn context_is_a_pure_function_of_the_spec_at_any_worker_count() {
        for maintenance in [TreeMaintenance::refit(), TreeMaintenance::RebuildEveryFrame] {
            let mut spec = quick_spec();
            spec.map.maintenance = maintenance;
            let one = ServiceContext::build_on(&spec, 1);

            let frames: Vec<_> = FrameStream::new(&spec.map).collect();
            let clouds: Vec<&PointCloud> = frames.iter().map(|f| &f.cloud).collect();
            let costs = |policy| -> Vec<MaintenanceCost> {
                maintain_tree_sequence(&clouds, policy, spec.top_height)
                    .iter()
                    .map(|t| t.cost)
                    .collect()
            };
            let tree_costs: Vec<MaintenanceCost> = one.trees.iter().map(|t| t.cost).collect();
            assert_eq!(tree_costs, costs(maintenance), "trees follow the spec policy");
            assert_eq!(
                one.alt_maintenance,
                costs(alternate_policy(maintenance)),
                "the alternate policy prices the slot"
            );
            assert_ne!(one.alt_maintenance, tree_costs, "the two bills differ");
            assert_eq!(one.queries.len(), spec.max_tenants());
            for (tenant, queries) in one.tenants.iter().zip(&one.queries) {
                let own: Vec<_> = FrameStream::new(&tenant.workload).map(|f| f.queries).collect();
                assert_eq!(query_bits(&own), query_bits(queries), "{}", tenant.name);
            }

            for workers in [2, 4] {
                let many = ServiceContext::build_on(&spec, workers);
                assert_eq!(many.ticks(), one.ticks());
                for (a, b) in one.trees.iter().zip(&many.trees) {
                    assert!(a.tree.same_nodes(&b.tree), "{workers} workers: tree differs");
                    assert_eq!(a.cost, b.cost, "{workers} workers: tick cost differs");
                }
                assert_eq!(many.alt_maintenance, one.alt_maintenance, "{workers} workers");
                assert_eq!(format!("{:?}", many.tenants), format!("{:?}", one.tenants));
                assert_eq!(many.queries.len(), one.queries.len());
                for (a, b) in one.queries.iter().zip(&many.queries) {
                    assert_eq!(query_bits(a), query_bits(b), "{workers} workers: queries differ");
                }
            }
        }
    }

    #[test]
    fn service_is_deterministic_and_conserves_frames() {
        let ctx = quick_ctx();
        let a = run_service(&ctx, 4, 2, 0);
        let b = run_service(&ctx, 4, 2, 0);
        assert_eq!(a.ledger.digest, b.ledger.digest, "same context, same digest");
        assert_eq!(a.results, b.results);
        // conservation: every frame either served once or rejected
        let total_frames: usize = a.ledger.tenants.iter().map(|t| t.frames.len()).sum();
        assert_eq!(total_frames, 4 * ctx.ticks());
        assert_eq!(a.ledger.admitted() + a.ledger.rejected(), total_frames);
        for (t, tr) in a.ledger.tenants.iter().zip(&a.results) {
            for (f, r) in t.frames.iter().zip(tr) {
                assert_eq!(f.admitted, r.is_some(), "results track admission");
                if let Some(r) = r {
                    assert_eq!(f.queries, r.len(), "one answer per admitted query");
                }
            }
        }
        assert!(a.ledger.wavefronts > 0);
        assert!(a.ledger.makespan > 0);
        // the static knob trajectory is one pinned entry per wavefront
        assert_eq!(a.ledger.knob_trajectory.len(), a.ledger.wavefronts);
        assert!(a.ledger.knob_trajectory.iter().all(|k| k.h_e == 0));
        assert_eq!(a.ledger.alt_maintenance_ticks, 0, "static runs always pay the spec policy");
    }

    #[test]
    fn colocated_tenants_share_wavefronts_and_amortize() {
        let ctx = quick_ctx();
        let multi = run_service(&ctx, 8, 1, 0);
        assert!(
            multi.ledger.shared_wavefronts > 0,
            "an 8-tenant mix on one instance must batch cross-tenant"
        );
        assert!(multi.ledger.amortization_factor() > 1.0);
    }

    #[test]
    fn he_zero_results_match_solo_runs() {
        let ctx = quick_ctx();
        let together = run_service(&ctx, 4, 1, 0);
        // the solo reference: each admitted frame re-run through the same
        // wavefront machinery with only its own tenant in the batch
        let config = service_config();
        let knobs = CrescentKnobs { top_height: ctx.top_height, ..CrescentKnobs::default() };
        let mut solo = crescent_accel::ServiceInstance::new();
        let mut batch = TaggedBatch::new();
        let mut compared = 0usize;
        for (ti, per_frame) in together.results.iter().enumerate() {
            let search = StreamSearchConfig {
                radius: ctx.radius,
                max_neighbors: ctx.max_neighbors,
                elision_depth: 0,
                descendant_reuse: ctx.tenants[ti].workload.scenario.descendant_reuse(),
                ..StreamSearchConfig::default()
            };
            for (frame, res) in per_frame.iter().enumerate() {
                let Some(res) = res else { continue };
                batch.clear();
                batch.push_segment(ti as u64, &ctx.queries[ti][frame]);
                let (tagged, _) =
                    solo.run_wavefront(&ctx.trees[frame].tree, &batch, &search, knobs, &config);
                assert_eq!(&tagged[0].1, res, "h_e = 0: co-tenants must not change answers");
                compared += 1;
            }
        }
        assert!(compared > 0, "the mix must admit at least one frame");
    }

    #[test]
    fn more_fleet_never_raises_tail_latency() {
        let ctx = quick_ctx();
        let one = run_service(&ctx, 8, 1, 0);
        let two = run_service(&ctx, 8, 2, 0);
        assert!(
            two.ledger.latency_percentile(99) <= one.ledger.latency_percentile(99),
            "adding an instance must not hurt p99 under this deterministic schedule"
        );
        assert_eq!(one.ledger.digest, two.ledger.digest, "fleet size moves cycles, not answers");
    }

    #[test]
    fn controller_with_a_zero_band_is_a_no_op() {
        // band [0, 0] forces every decision to h_e = 0, so the whole
        // run — answers, schedule, energy, maintenance bill — must be
        // bit-identical to the static h_e = 0 path, even though it
        // flows through the controller machinery
        let ctx = quick_ctx();
        let cfg = ControllerConfig { h_e_max: 0, ..ControllerConfig::default() };
        let off = run_service_controlled(&ctx, 4, 1, 4, &cfg);
        let reference = run_service(&ctx, 4, 1, 0);
        assert_eq!(off.results, reference.results);
        assert_eq!(off.ledger.digest, reference.ledger.digest);
        assert_eq!(off.ledger.makespan, reference.ledger.makespan);
        assert_eq!(off.ledger.knob_trajectory, reference.ledger.knob_trajectory);
        assert_eq!(off.ledger.map_build_cycles, reference.ledger.map_build_cycles);
        assert_eq!(off.ledger.alt_maintenance_ticks, 0);
        assert_eq!(off.ledger.map_energy.total(), reference.ledger.map_energy.total());
        assert_eq!(off.ledger.search_energy.total(), reference.ledger.search_energy.total());
    }

    #[test]
    fn controlled_run_is_deterministic_and_stays_in_band() {
        let ctx = quick_ctx();
        let cfg = ControllerConfig { h_e_max: 3, ..ControllerConfig::default() };
        let a = run_service_controlled(&ctx, 8, 1, 0, &cfg);
        let b = run_service_controlled(&ctx, 8, 1, 0, &cfg);
        assert_eq!(a.ledger.knob_trajectory, b.ledger.knob_trajectory, "pure function");
        assert_eq!(a.ledger.digest, b.ledger.digest);
        assert!(a.ledger.knob_trajectory.iter().all(|k| k.h_e <= 3), "band is respected");
        // the per-frame h_e mirror matches the wavefront trajectory
        for t in &a.ledger.tenants {
            for f in t.frames.iter().filter(|f| f.admitted) {
                let k = a.ledger.knob_trajectory[f.wavefront.unwrap()];
                assert_eq!(f.h_e, k.h_e);
            }
        }
    }

    #[test]
    fn batched_reuse_tenant_fires_conflict_reuses() {
        // satellite: the canonical mix's DescendantReuse tenant must
        // actually exercise the salvage path under batched dispatch
        let ctx = quick_ctx();
        let deep = run_service(&ctx, 8, 1, 4);
        assert!(
            deep.ledger.conflict_reuses > 0,
            "8-tenant mix at h_e = 4 must salvage elided fetches fleet-wide"
        );
        let exact = run_service(&ctx, 8, 1, 0);
        assert_eq!(exact.ledger.conflict_reuses, 0, "reuse is provably inert at h_e = 0");
        assert_eq!(exact.ledger.conflicts_elided, 0);
    }

    /// A stored wavefront as one word list: latency, energy bits, the
    /// five counters, then every query's hit count and hits.
    fn wavefront_bits(wf: &Wavefront) -> Vec<u64> {
        let e = &wf.energy;
        let mut bits = vec![wf.latency];
        bits.extend(
            [
                e.dram_random,
                e.dram_streaming,
                e.sram_search,
                e.sram_aggregation,
                e.sram_global,
                e.compute,
                e.tree_build,
                e.leakage,
            ]
            .map(f64::to_bits),
        );
        bits.extend([
            wf.top_fetches,
            wf.top_fetches_unamortized,
            wf.conflicts_elided,
            wf.nodes_skipped,
            wf.conflict_reuses,
        ]);
        for hits in wf.neighbors(0..wf.queries) {
            bits.push(hits.len() as u64);
            bits.extend(hits.iter().flat_map(|n| [n.index as u64, u64::from(n.dist2.to_bits())]));
        }
        bits
    }

    /// Every wavefront a memo miss stores — replayed from its riders'
    /// frame traces — equals `simulate_wavefront` of its flat batch on
    /// the same tree, for every key that static runs at `h_e` 0/2/4 and
    /// an SLO run of the 8-tenant mix (reuse tenant aboard) simulate,
    /// under both map policies. Each tenant frame is traced at most once
    /// whether the runs share 1 worker or race on 4.
    #[test]
    fn memo_misses_replay_the_simulated_wavefront() {
        let runs = [Some(0), Some(2), Some(4), None];
        for maintenance in [TreeMaintenance::refit(), TreeMaintenance::RebuildEveryFrame] {
            let mut spec = quick_spec();
            spec.map.maintenance = maintenance;
            for workers in [1, 4] {
                let ctx = ServiceContext::build_on(&spec, workers);
                par_map(&runs, workers, |_, run| match *run {
                    Some(h_e) => run_service(&ctx, 8, 1, h_e),
                    None => run_service_controlled(&ctx, 8, 1, 0, &spec.controller),
                });
                let entries = ctx.wavefronts.entries();
                assert_eq!(entries.len(), ctx.wavefronts_simulated());
                let frames: HashSet<(usize, usize)> = entries
                    .iter()
                    .flat_map(|(key, _)| key.tenants.iter().map(|&t| (key.tick, t)))
                    .collect();
                assert_eq!(ctx.frames_traced(), frames.len(), "{workers} workers: one trace each");
                assert!(
                    entries.iter().any(|(_, wf)| wf.conflict_reuses > 0),
                    "the reuse tenant's splices must fire"
                );
                if workers > 1 {
                    continue;
                }
                let config = service_config();
                let knobs =
                    CrescentKnobs { top_height: ctx.top_height, ..CrescentKnobs::default() };
                for (key, stored) in &entries {
                    let search = StreamSearchConfig {
                        radius: ctx.radius,
                        max_neighbors: ctx.max_neighbors,
                        elision_depth: key.h_e,
                        descendant_reuse: key
                            .tenants
                            .iter()
                            .any(|&t| ctx.tenants[t].workload.scenario.descendant_reuse()),
                        ..StreamSearchConfig::default()
                    };
                    let flat: Vec<Point3> = key
                        .tenants
                        .iter()
                        .flat_map(|&t| ctx.queries[t][key.tick].clone())
                        .collect();
                    let (hits, report) = crescent_accel::ServiceInstance::new().simulate_wavefront(
                        &ctx.trees[key.tick].tree,
                        &flat,
                        &search,
                        knobs,
                        &config,
                    );
                    let simulated = Wavefront::new(&hits, &report);
                    assert_eq!(wavefront_bits(stored), wavefront_bits(&simulated), "{key:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid controller config")]
    fn invalid_controller_config_is_rejected() {
        let ctx = quick_ctx();
        let cfg = ControllerConfig { backlog_unit: 0, ..ControllerConfig::default() };
        run_service_controlled(&ctx, 1, 1, 0, &cfg);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_fleet_is_rejected() {
        let ctx = quick_ctx();
        run_service(&ctx, 1, 0, 0);
    }
}
