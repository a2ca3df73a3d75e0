"""Per-figure reproduction pipelines (Figures 1-8 plus ablations)."""

from __future__ import annotations

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it, imported on first use
_EXPORTS = {
    "Arms": "arms",
    "run_fabric_figure": "fabric",
    "FabricResult": "fabric",
    "run_srpt_comparison": "srpt",
    "SrptResult": "srpt",
    "run_pareto": "pareto",
    "ParetoResult": "pareto",
    "run_incast_sweep": "incast",
    "IncastResult": "incast",
    "run_load_balance": "load_balance",
    "run_hardware_comparison": "load_balance",
    "LoadBalanceResult": "load_balance",
    "run_mptcp_comparison": "mptcp",
    "MptcpResult": "mptcp",
    "run_mechanism_breakdown": "mechanisms",
    "MechanismResult": "mechanisms",
    "run_friendliness_matrix": "friendliness",
    "run_pairing": "friendliness",
    "FriendlinessResult": "friendliness",
    "run_workload_energy": "workload_energy",
    "WorkloadEnergyResult": "workload_energy",
    "run_fig1": "fig1",
    "Fig1Result": "fig1",
    "Fig1Point": "fig1",
    "run_fig2": "fig2",
    "Fig2Result": "fig2",
    "Fig2Point": "fig2",
    "run_fig3": "fig3",
    "Fig3Result": "fig3",
    "run_fig4": "fig4",
    "Fig4Result": "fig4",
    "run_cca_mtu_grid": "grid",
    "CcaMtuGrid": "grid",
    "GridCell": "grid",
    "concavity_ablation": "ablation",
    "ConcavityAblation": "ablation",
    "bbr2_alpha_ablation": "ablation",
    "Bbr2AlphaAblation": "ablation",
    "ecn_threshold_ablation": "ablation",
    "buffer_ablation": "ablation",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
