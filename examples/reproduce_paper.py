"""Regenerate every table and figure of the paper's evaluation section.

Runs each experiment module in order and prints its rendered text
table/series — the terminal equivalent of the paper's Figs. 6-13 and
Table 1, plus the design-choice ablations.

Run:  python examples/reproduce_paper.py          (all experiments)
      python examples/reproduce_paper.py fig10    (just one)
"""

from __future__ import annotations

import sys

from repro.experiments import (
    ablations,
    extensions,
    fig06_tma,
    fig07_vco,
    fig08_patterns,
    fig09_waveforms,
    fig10_snr_map,
    fig11_ber_cdf,
    fig12_range,
    fig13_multinode,
    table1,
)

EXPERIMENTS = {
    "fig06": ("Fig. 6 — TMA direction hashing",
              lambda: fig06_tma.render(fig06_tma.run())),
    "fig07": ("Fig. 7 — VCO tuning curve + microbenchmarks",
              lambda: fig07_vco.render(fig07_vco.run())),
    "fig08": ("Fig. 8 — orthogonal beam patterns",
              lambda: fig08_patterns.render(fig08_patterns.run())),
    "fig09": ("Fig. 9 — joint ASK-FSK decoding",
              lambda: fig09_waveforms.render(fig09_waveforms.run())),
    "fig10": ("Fig. 10 — room SNR heatmaps",
              lambda: fig10_snr_map.render(fig10_snr_map.run())),
    "fig11": ("Fig. 11 — BER CDF",
              lambda: fig11_ber_cdf.render(fig11_ber_cdf.run())),
    "fig12": ("Fig. 12 — SNR vs distance",
              lambda: fig12_range.render(fig12_range.run())),
    "fig13": ("Fig. 13 — multi-node SNR",
              lambda: fig13_multinode.render(fig13_multinode.run())),
    "table1": ("Table 1 — platform comparison",
               lambda: table1.render(table1.run())),
    "ablations": ("Ablations — design choices",
                  lambda: "\n\n".join([
                      ablations.render(ablations.run_orthogonality(),
                                       ablations.run_modulation(),
                                       ablations.run_beam_search()),
                      ablations.render_oracle(
                          ablations.run_oracle_comparison()),
                  ])),
    "extensions": ("Extensions — mobility / scheduling / 60 GHz",
                   lambda: "\n\n".join([
                       extensions.render_mobility(
                           extensions.run_mobility(duration_s=30.0)),
                       extensions.render_scheduler(
                           extensions.run_scheduler(trials=10)),
                       extensions.render_60ghz(extensions.run_60ghz()),
            extensions.render_channel_stats(extensions.run_channel_stats()),
            extensions.render_streaming(extensions.run_streaming()),
                   ])),
}


def main() -> None:
    requested = sys.argv[1:] or list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment(s) {unknown}; "
                         f"choose from {sorted(EXPERIMENTS)}")
    for name in requested:
        title, runner = EXPERIMENTS[name]
        print("=" * 72)
        print(title)
        print("=" * 72)
        print(runner())
        print()


if __name__ == "__main__":
    main()
