//! One module per paper table/figure (see DESIGN.md §5 for the index).

pub mod ablation;
pub mod contention;
pub mod energy;
pub mod faults;
pub mod latency;
pub mod pef;
pub mod saturation;
pub mod scaling;
pub mod tables;
pub mod thermal;

use crate::{Scale, Table};
use noc_core::RoutingKind;
use noc_fault::FaultCategory;
use noc_traffic::TrafficKind;

/// One output of the reproduction: a paper table or figure, or an
/// extension. `run_all` and the per-figure binaries both write through
/// [`Experiment::write`], so each output's file names are spelled once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1: RoCo VC buffer configuration.
    Table1,
    /// Table 2: non-blocking probabilities.
    Table2,
    /// Fig 2: VA/SA arbiter complexity.
    Fig2,
    /// Fig 3: contention probabilities vs injection rate.
    Fig3,
    /// Fig 8: latency vs injection, uniform traffic.
    Fig8,
    /// Fig 9: latency vs injection, self-similar traffic.
    Fig9,
    /// Fig 10: latency vs injection, transpose traffic.
    Fig10,
    /// Fig 11: completion probability, router-centric (critical) faults.
    Fig11,
    /// Fig 12: completion probability, message-centric (non-critical)
    /// faults.
    Fig12,
    /// Fig 13: energy per packet.
    Fig13,
    /// Fig 14: PEF under critical and non-critical faults.
    Fig14,
    /// Extension: latency vs injection, MPEG-2 traffic.
    ExtMpeg,
    /// Ablations: mirroring, adaptive policy, speculation.
    Ablations,
    /// Ablation: generic-router buffer partitioning.
    VcPartitioning,
    /// Extension: thermal comparison.
    ExtThermal,
    /// Extension: mesh-size scaling sweep.
    ExtScaling,
    /// Saturation throughput per router and routing algorithm.
    Saturation,
}

impl Experiment {
    /// What `run_all` writes, in order. The scaling sweep and the
    /// saturation table only run from their own binaries.
    pub const RUN_ALL: [Experiment; 15] = [
        Experiment::Table1,
        Experiment::Table2,
        Experiment::Fig2,
        Experiment::Fig3,
        Experiment::Fig8,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::Fig11,
        Experiment::Fig12,
        Experiment::Fig13,
        Experiment::Fig14,
        Experiment::ExtMpeg,
        Experiment::Ablations,
        Experiment::VcPartitioning,
        Experiment::ExtThermal,
    ];

    /// Runs the experiment at `scale` and writes its CSVs under
    /// `results/` (plus gnuplot scripts for the curve figures).
    pub fn write(self, scale: Scale) {
        const LATENCY: Option<&str> = Some("average latency (cycles)");
        let latency = |traffic| latency::latency_figure(traffic, scale);
        let completion = |category| faults::completion_figure(category, scale);
        match self {
            Experiment::Table1 => tables::table1().emit("table01_vc_config"),
            Experiment::Table2 => tables::table2().emit("table02_nonblocking"),
            Experiment::Fig2 => tables::fig2(3).emit("fig02_va_complexity"),
            Experiment::Fig3 => {
                panels(contention::fig3(), "fig03", "_contention", Some("contention probability"));
            }
            Experiment::Fig8 => panels(latency(TrafficKind::Uniform), "fig08", "_uniform", LATENCY),
            Experiment::Fig9 => {
                panels(latency(TrafficKind::SelfSimilar), "fig09", "_selfsimilar", LATENCY);
            }
            Experiment::Fig10 => {
                panels(latency(TrafficKind::Transpose), "fig10", "_transpose", LATENCY);
            }
            Experiment::Fig11 => {
                panels(completion(FaultCategory::Isolating), "fig11", "_completion", None);
            }
            Experiment::Fig12 => {
                panels(completion(FaultCategory::Recyclable), "fig12", "_completion", None);
            }
            Experiment::Fig13 => energy::fig13(scale).emit("fig13_energy"),
            Experiment::Fig14 => {
                for (cat, tag) in [
                    (FaultCategory::Isolating, "a_critical"),
                    (FaultCategory::Recyclable, "b_noncritical"),
                ] {
                    let t = pef::fig14_panel(cat, RoutingKind::Adaptive, scale);
                    let (vs_generic, vs_ps) = pef::pef_improvement(&t);
                    t.emit(&format!("fig14{tag}_pef"));
                    println!(
                        "RoCo PEF improvement ({cat}): {:.0}% vs generic, {:.0}% vs \
                         path-sensitive\n",
                        vs_generic * 100.0,
                        vs_ps * 100.0
                    );
                }
            }
            Experiment::ExtMpeg => panels(latency(TrafficKind::Mpeg), "ext_mpeg_", "", LATENCY),
            Experiment::Ablations => {
                ablation::mirror_ablation(scale).emit("ablation_mirror");
                ablation::adaptive_policy_ablation(scale).emit("ablation_adaptive_policy");
                ablation::speculation_ablation(scale).emit("ablation_speculation");
            }
            Experiment::VcPartitioning => {
                ablation::vc_sensitivity(scale).emit("ablation_vc_partitioning");
            }
            Experiment::ExtThermal => thermal::thermal_comparison(scale).emit("ext_thermal"),
            Experiment::ExtScaling => scaling::scaling_table(scale).emit("ext_scaling"),
            Experiment::Saturation => saturation::saturation_table(scale).emit("saturation"),
        }
    }
}

/// Writes a figure's panels as `{prefix}{a,b,c,…}{suffix}`, each with a
/// gnuplot script when `y_label` names the y axis.
fn panels(tables: Vec<Table>, prefix: &str, suffix: &str, y_label: Option<&str>) {
    for (i, t) in tables.into_iter().enumerate() {
        let name = format!("{prefix}{}{suffix}", (b'a' + i as u8) as char);
        match y_label {
            Some(label) => t.emit_with_plot(&name, label),
            None => t.emit(&name),
        }
    }
}
