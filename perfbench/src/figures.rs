//! `paper_figures`: the deterministic modeled figures through
//! `crescent_bench::run_figure` at quick scale (fig2–5, 8, 9, 22, 24 and
//! the descendant-reuse ablation), plus the fig14 network × variant
//! matrix on a cloud drawn from the seed.
//!
//! Without it the `memsim` cache/DRAM trace simulators and `accel`'s
//! `run_network` pipeline (Mesorasi / ANS / ANS+BCE / Tigris / GPU) go
//! unmeasured. It also carries the paper's headline ratios: the fig14
//! average ANS+BCE speedup and energy, both against Mesorasi.

use std::time::Instant;

use crescent_accel::{run_network, AcceleratorConfig, CrescentKnobs, NetworkSpec, Variant};
use crescent_bench::common::pipeline_cloud;
use crescent_bench::{run_figure, Figure, Scale};
use crescent_pointcloud::PointCloud;

use crate::trace::Tracer;
use crate::{derive_seed, Checks, Pass};

/// The memory-characterization figures (memsim trace simulators).
const MOTIVATION: [&str; 6] = ["fig2", "fig3", "fig4", "fig5", "fig8", "fig9"];
/// The remaining deterministic modeled figures.
const OTHER: [&str; 3] = ["fig22", "fig24", "ablation_reuse"];

/// The fig14 cloud for a run seed.
pub fn cloud(seed: u64) -> PointCloud {
    pipeline_cloud(Scale::Quick, derive_seed(seed, "figures.cloud"))
}

/// Averages over the evaluation networks, against Mesorasi.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig14 {
    pub ans_speedup: f64,
    pub bce_speedup: f64,
    pub ans_energy: f64,
    pub bce_energy: f64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Output {
    pub rendered: String,
    pub fig14: Fig14,
    pub claims: Vec<(&'static str, bool)>,
}

/// The fig14 matrix: every evaluation network on every variant, with
/// the operating point `PerformanceSuite::run` uses.
pub fn fig14(cloud: &PointCloud, tracer: &Tracer) -> Fig14 {
    let base = AcceleratorConfig::default();
    let knobs = CrescentKnobs { top_height: 4, elision_height: 9 };
    let nets = NetworkSpec::evaluation_suite();
    let mut sums = [0.0f64; 4];
    for spec in &nets {
        let run = |v: Variant| {
            tracer.span("accel.pipeline", || run_network(spec, cloud, v, knobs, &base))
        };
        let reports: Vec<_> = Variant::ALL.iter().map(|&v| (v, run(v))).collect();
        let get = |v: Variant| &reports.iter().find(|(w, _)| *w == v).expect("every variant").1;
        let meso = get(Variant::Mesorasi);
        for (i, v) in [Variant::Ans, Variant::AnsBce].into_iter().enumerate() {
            sums[i] += meso.total_cycles() as f64 / get(v).total_cycles() as f64;
            sums[2 + i] += get(v).energy.total() / meso.energy.total();
        }
    }
    let n = nets.len() as f64;
    Fig14 {
        ans_speedup: sums[0] / n,
        bce_speedup: sums[1] / n,
        ans_energy: sums[2] / n,
        bce_energy: sums[3] / n,
    }
}

fn figures(ids: &[&str], span: &'static str, tracer: &Tracer) -> Vec<Figure> {
    ids.iter()
        .flat_map(|id| tracer.span(span, || run_figure(id, Scale::Quick).expect("known figure id")))
        .collect()
}

/// One pass: draw the fig14 cloud (set-up), then render every figure.
/// With two workers the pass runs as two lanes of about equal length:
/// the memsim trace figures, each of which holds a 60k-point scene, and
/// the pipeline figures. A lane never overlaps two scenes, so peak memory
/// does not depend on how the threads happen to interleave.
pub fn pass(seed: u64, workers: usize, tracer: &Tracer) -> Pass<Output> {
    let start = Instant::now();
    let cloud = cloud(seed);
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let pipeline = |tracer: &Tracer| {
        let fig14 = fig14(&cloud, tracer);
        (fig14, figures(&OTHER, "bench.figures_other", tracer))
    };
    let (motivation, (fig14, other)) = if workers > 1 {
        std::thread::scope(|scope| {
            let lane = scope.spawn(|| figures(&MOTIVATION, "bench.motivation", &Tracer::off()));
            let pipeline = pipeline(&Tracer::off());
            (lane.join().expect("the motivation lane panicked"), pipeline)
        })
    } else {
        (figures(&MOTIVATION, "bench.motivation", tracer), pipeline(tracer))
    };
    let work_s = start.elapsed().as_secs_f64();

    let figs: Vec<&Figure> = motivation.iter().chain(&other).collect();
    let figure = |id: &str| *figs.iter().find(|f| f.id == id).expect("figure rendered");
    let column = |id: &str| -> Vec<f64> { figure(id).rows.iter().map(|r| r.values[0]).collect() };
    let fig4 = column("fig4");
    let fig9 = column("fig9");
    let fig24 = &figure("fig24").rows.last().expect("AVG row").values;
    let claims = vec![
        ("fig4: conflict rate never rises with banks", fig4.windows(2).all(|w| w[1] <= w[0])),
        ("fig9: deep elision skips fewer nodes", fig9.last() < fig9.first()),
        (
            "fig14: ANS+BCE beats ANS beats Mesorasi",
            fig14.bce_speedup >= fig14.ans_speedup * 0.98 && fig14.ans_speedup > 1.0,
        ),
        ("fig14: ANS+BCE saves energy", fig14.bce_energy < 1.0),
        ("fig24: both reductions positive", fig24.iter().all(|&v| v > 0.0)),
    ];
    let rendered = figs.iter().map(|f| f.render()).collect();
    Pass { setup_s, work_s, output: Output { rendered, fig14, claims } }
}

pub fn check(out: &Output, checks: &mut Checks) {
    for &(claim, holds) in &out.claims {
        checks.check(claim, holds);
    }
}

pub fn modeled(fig14: &Fig14) -> Vec<(&'static str, f64)> {
    vec![("modeled_speedup", fig14.bce_speedup), ("modeled_energy_ratio", fig14.bce_energy)]
}

/// The traced replay is the pass itself on one worker with spans on:
/// every figure call and every `run_network` call is a layer boundary.
pub fn replay(
    seed: u64,
    reference: &Output,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let traced = pass(seed, 1, tracer).output;
    checks.check("figures: the traced pass repeats the figures", &traced == reference);
    vec![
        ("bench.motivation_s", tracer.seconds("bench.motivation")),
        ("accel.pipeline_s", tracer.seconds("accel.pipeline")),
        ("accel.pipeline_calls", tracer.calls("accel.pipeline") as f64),
        ("bench.figures_other_s", tracer.seconds("bench.figures_other")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seeded_matrix_is_the_papers_fig14_at_its_seed() {
        // PerformanceSuite::run draws its cloud with seed 0xF16
        let paper_cloud = pipeline_cloud(Scale::Quick, 0xF16);
        let ours = fig14(&paper_cloud, &Tracer::off());
        let figs = run_figure("fig14", Scale::Quick).expect("fig14");
        let avg = |id: &str| {
            figs.iter().find(|f| f.id == id).expect(id).rows.last().expect("AVG").values.clone()
        };
        assert_eq!(avg("fig14a")[0], ours.ans_speedup);
        assert_eq!(avg("fig14a")[1], ours.bce_speedup);
        assert_eq!(avg("fig14b")[1], ours.bce_energy);
        assert_eq!(ours, fig14(&paper_cloud, &Tracer::off()), "modeled metrics repeat exactly");
        assert_ne!(cloud(1).point(0).to_array(), cloud(2).point(0).to_array());
    }
}
