//! Figure-reproduction library for the Crescent (ISCA 2022) evaluation.
//!
//! Each paper figure has a function returning a [`Figure`] (id, caption,
//! columns, rows); the `repro` binary prints them, and the integration
//! tests assert their shapes. The README's "Reproducing paper figures"
//! section says how to run them and which figures are byte-gated.

#![warn(missing_docs)]

pub mod accuracy;
pub mod common;
pub mod grid;
pub mod motivation;
pub mod performance;
pub mod serve;
pub mod sweep;

pub use common::{FigRow, Figure, Scale};
pub use grid::{run_grid_command, GridArgs};
pub use serve::{run_serve_command, ServeArgs};
pub use sweep::run_sweep_command;

/// Runs one figure by id; `None` if the id is unknown.
///
/// Valid ids: `fig2 fig3 fig4 fig5 fig8 fig9 fig13 fig14 fig15 fig16
/// fig17 fig18 fig19 fig20 fig21 fig22 fig23 fig24` (fig14–17 render from
/// one shared simulation; requesting any of them runs the suite).
pub fn run_figure(id: &str, scale: Scale) -> Option<Vec<Figure>> {
    let figs = match id {
        "fig2" => vec![motivation::fig2(scale)],
        "fig3" => vec![motivation::fig3(scale)],
        "fig4" => vec![motivation::fig4(scale)],
        "fig5" => vec![motivation::fig5(scale)],
        "fig8" => vec![motivation::fig8(scale)],
        "fig9" => vec![motivation::fig9(scale)],
        "fig13" => vec![accuracy::fig13(scale)],
        "fig14" | "fig15" | "fig16" | "fig17" => {
            let suite = performance::PerformanceSuite::run(scale);
            vec![
                suite.fig14a(),
                suite.fig14b(),
                suite.fig15a(),
                suite.fig15b(),
                suite.fig16(),
                suite.fig17(),
            ]
        }
        "fig18" => vec![accuracy::fig18(scale)],
        "fig19" => vec![accuracy::fig19(scale)],
        "fig20" => vec![accuracy::fig20(scale)],
        "fig21" => vec![accuracy::fig21(scale)],
        "fig22" => {
            let (a, b) = performance::fig22(scale);
            vec![a, b]
        }
        "fig23" => vec![accuracy::fig23(scale)],
        "fig24" => vec![performance::fig24(scale)],
        "ablation_reuse" => vec![performance::ablation_reuse(scale)],
        _ => return None,
    };
    Some(figs)
}

/// All runnable figure ids, in paper order.
pub const ALL_FIGURES: [&str; 16] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "fig13",
    "fig14",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "ablation_reuse",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        assert!(run_figure("fig999", Scale::Quick).is_none());
    }

    #[test]
    fn cheap_figures_run() {
        for id in ["fig4", "fig8"] {
            let figs = run_figure(id, Scale::Quick).expect("known id");
            assert!(!figs.is_empty());
            assert!(!figs[0].rows.is_empty());
        }
    }
}
