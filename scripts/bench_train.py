"""Training throughput benchmark: fused training engine vs the autodiff graph.

Model fitting was the last graph-bound subsystem: every inference hot path is
batched and graph-free, but the paper's pipeline retrains an LSTM glucose
predictor per patient/cohort and a MAD-GAN per detector configuration, so
training dominates wall-clock for any scenario sweep.  This benchmark times
both fits under their two engines:

* ``graph`` — the reference twin: ``model(Tensor(x))``, ``loss.backward()``
  through the reverse-mode autodiff graph (each model's ``fit_graph``).
* ``fused`` — the hand-written training engine (each model's ``fit``):
  analytic truncated-BPTT backward passes over the fused 4-gate matmuls with
  cached forward activations and preallocated gradient buffers
  (``repro.nn.fused.FusedTrainer``, ``Module.fused_grads``).

Both engines consume identical data, shuffling, and latent draws under a
fixed seed, so their per-epoch loss curves must match **step for step**
(asserted within ``LOSS_CURVE_TOLERANCE``) and one-batch fused gradients must
match the graph within ``GRADIENT_TOLERANCE`` (1e-8) — the same pinning
discipline as every other fast path in the repo (see docs/architecture.md).

Exit criteria: predictor-fit epoch throughput >= 3x the graph path, MAD-GAN
fit epoch throughput >= 2.5x, gradients within 1e-8, loss curves step-for-step.
Writes ``BENCH_train.json`` next to the repo root.  Usage::

    PYTHONPATH=src python scripts/bench_train.py [--output PATH] [--repeats N]
    PYTHONPATH=src python scripts/bench_train.py --smoke   # parity only, no gates

``--smoke`` runs the gradient and loss-curve parity assertions on a tiny
configuration without timing gates (CI uses it as a fast tripwire).
"""

from __future__ import annotations

import argparse
import platform
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_parity import (
    GRADIENT_TOLERANCE,
    LOSS_CURVE_TOLERANCE,
    assert_loss_curves_match as _assert_loss_curves_match,
    fused_vs_graph_gradient_gap,
)
from repro.data import SyntheticOhioT1DM, make_patient_profile
from repro.detectors import LSTMVAEDetector, MADGANDetector
from repro.glucose import GlucoseModelZoo
from repro.glucose.predictor import GlucosePredictor
from repro.obs import Timer
from repro.utils.jsonio import dumps_strict

BENCH_PATIENTS = [("A", 5), ("A", 0), ("A", 2)]
BENCH_SEED = 17

#: Predictor fit configuration (the paper's per-patient forecaster budget,
#: scaled to a few CPU seconds).
PREDICTOR_KWARGS = dict(epochs=6, hidden_size=16, batch_size=64, seed=11)
#: MAD-GAN fit configuration.  inversion_steps is deliberately small so the
#: post-training calibration (already fast-pathed in PR 2) stays a sliver of
#: the measured fit time — the gate measures the GAN training loop.
MADGAN_KWARGS = dict(
    epochs=6, hidden_size=12, batch_size=64, inversion_steps=5, seed=4
)
#: LSTM-VAE fit configuration (encoder/decoder LSTMs + the ``vae_elbo``
#: fused loss head; both engines consume the same per-step eps draws).
VAE_KWARGS = dict(epochs=4, hidden_size=12, latent_dim=3, batch_size=64, seed=2)

TARGET_PREDICTOR_SPEEDUP = 3.0
TARGET_MADGAN_SPEEDUP = 2.5
# Parity tolerances are defined once, in check_parity.py: 1e-8 on gradients,
# and step-for-step loss curves within 1e-6 (individual steps agree near
# machine precision; the budget covers benign fp accumulation compounding
# over hundreds of Adam updates — measured ~3e-9 after 6 GAN epochs here).


def build_fixture(train_days: int = 2):
    profiles = [make_patient_profile(subset, pid) for subset, pid in BENCH_PATIENTS]
    cohort = SyntheticOhioT1DM(
        train_days=train_days, test_days=1, seed=BENCH_SEED, profiles=profiles
    ).generate()
    dataset = GlucoseModelZoo().dataset
    windows, targets, _ = dataset.from_cohort(cohort, split="train")
    return windows, targets


def assert_loss_curves_match(graph_losses, fused_losses, label: str) -> float:
    """check_parity's shared step-for-step comparison, as a benchmark gate."""
    try:
        return _assert_loss_curves_match(graph_losses, fused_losses, label)
    except AssertionError as error:
        raise SystemExit(str(error)) from None


def check_gradient_parity(windows, targets) -> float:
    """One-batch fused gradients vs the autodiff graph, across the full stack.

    Delegates the actual comparison to ``check_parity.py``'s shared
    :func:`fused_vs_graph_gradient_gap` (one parity recipe for both scripts);
    this wrapper only builds a briefly-trained forecaster to compare on.
    """
    predictor = GlucosePredictor(**{**PREDICTOR_KWARGS, "epochs": 1})
    scaler_fit = predictor.fit(windows[:96], targets[:96])  # fit scaler + warm weights
    scaled = predictor._clip_scaled(scaler_fit.scaler.transform(windows[:64]))
    batch_targets = scaler_fit.scaler.scale_target(targets[:64]).reshape(-1, 1)
    worst = fused_vs_graph_gradient_gap(predictor.model, scaled, batch_targets)
    if worst > GRADIENT_TOLERANCE:
        raise SystemExit(
            f"fused gradients diverged from the autodiff graph: {worst:.3e} > "
            f"{GRADIENT_TOLERANCE:g}"
        )
    return worst


def time_engines(make, repeats: int, *data):
    """Best-of-``repeats`` seconds of ``fit_graph`` (False) and ``fit`` (True).

    Each repetition fits a fresh ``make()`` model on ``data``; returns the
    best seconds and the last fitted model per engine.
    """
    best = {}
    fitted = {}
    for fast in (False, True):
        timer = Timer()
        for _ in range(repeats):
            model = make()
            fit = model.fit if fast else model.fit_graph
            with timer.lap():
                fit(*data)
        best[fast] = timer.best
        fitted[fast] = model
    return best, fitted


def bench_predictor(windows, targets, repeats: int, kwargs=None):
    kwargs = dict(PREDICTOR_KWARGS if kwargs is None else kwargs)
    epochs = kwargs["epochs"]
    best, fitted = time_engines(
        lambda: GlucosePredictor(**kwargs), repeats, windows, targets
    )
    histories = {fast: list(model.history_.epoch_losses) for fast, model in fitted.items()}

    gap = assert_loss_curves_match(histories[False], histories[True], "predictor fit")
    return {
        "n_windows": int(len(windows)),
        "config": kwargs,
        "graph_seconds": best[False],
        "fused_seconds": best[True],
        "graph_epochs_per_sec": epochs / best[False],
        "fused_epochs_per_sec": epochs / best[True],
        "speedup": best[False] / best[True],
        "loss_curve_gap": gap,
        "epoch_losses": histories[True],
    }


def bench_madgan(windows, repeats: int, kwargs=None):
    kwargs = dict(MADGAN_KWARGS if kwargs is None else kwargs)
    epochs = kwargs["epochs"]
    best, fitted = time_engines(lambda: MADGANDetector(**kwargs), repeats, windows)
    histories = {fast: model.history_ for fast, model in fitted.items()}

    generator_gap = assert_loss_curves_match(
        histories[False].generator_losses,
        histories[True].generator_losses,
        "MAD-GAN generator fit",
    )
    discriminator_gap = assert_loss_curves_match(
        histories[False].discriminator_losses,
        histories[True].discriminator_losses,
        "MAD-GAN discriminator fit",
    )
    return {
        "n_windows": int(len(windows)),
        "config": kwargs,
        "graph_seconds": best[False],
        "fused_seconds": best[True],
        "graph_epochs_per_sec": epochs / best[False],
        "fused_epochs_per_sec": epochs / best[True],
        "speedup": best[False] / best[True],
        "generator_loss_gap": generator_gap,
        "discriminator_loss_gap": discriminator_gap,
    }


def bench_vae(windows, repeats: int, kwargs=None):
    """LSTM-VAE fit under both engines: timing + ELBO loss-curve parity."""
    kwargs = dict(VAE_KWARGS if kwargs is None else kwargs)
    epochs = kwargs["epochs"]
    best, fitted = time_engines(lambda: LSTMVAEDetector(**kwargs), repeats, windows)
    histories = {fast: list(model.history_) for fast, model in fitted.items()}

    gap = assert_loss_curves_match(histories[False], histories[True], "LSTM-VAE fit")
    return {
        "n_windows": int(len(windows)),
        "config": kwargs,
        "graph_seconds": best[False],
        "fused_seconds": best[True],
        "graph_epochs_per_sec": epochs / best[False],
        "fused_epochs_per_sec": epochs / best[True],
        "speedup": best[False] / best[True],
        "loss_curve_gap": gap,
    }


def run_smoke() -> None:
    """Parity-only pass on a tiny configuration (no timing gates)."""
    windows, targets = build_fixture(train_days=1)
    gradient_gap = check_gradient_parity(windows, targets)
    print(f"  fused-vs-graph gradient gap: {gradient_gap:.3e} (tolerance 1e-8)")
    predictor = bench_predictor(
        windows[:256], targets[:256], repeats=1,
        kwargs={**PREDICTOR_KWARGS, "epochs": 2},
    )
    print(f"  predictor loss curves match step-for-step (gap {predictor['loss_curve_gap']:.3e})")
    madgan = bench_madgan(
        windows[:192], repeats=1, kwargs={**MADGAN_KWARGS, "epochs": 2}
    )
    print(
        "  MAD-GAN loss curves match step-for-step "
        f"(gen {madgan['generator_loss_gap']:.3e}, "
        f"disc {madgan['discriminator_loss_gap']:.3e})"
    )
    vae = bench_vae(windows[:192], repeats=1, kwargs={**VAE_KWARGS, "epochs": 2})
    print(
        f"  LSTM-VAE ELBO loss curves match step-for-step "
        f"(gap {vae['loss_curve_gap']:.3e})"
    )
    print("training parity smoke passed")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_train.json",
        help="where to write the benchmark report (default: repo root)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed repetitions per engine; the best run is reported",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run only the gradient/loss-curve parity checks (no timing gates)",
    )
    args = parser.parse_args()
    if args.smoke:
        print("running fused-training parity smoke...")
        run_smoke()
        return
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    print("building fixture (3-patient cohort training windows)...")
    windows, targets = build_fixture()
    print(f"  {len(windows)} windows of shape {windows.shape[1:]}")

    print("checking one-batch fused-vs-graph gradient parity...")
    gradient_gap = check_gradient_parity(windows, targets)
    print(f"  max gradient gap: {gradient_gap:.3e} (tolerance {GRADIENT_TOLERANCE:g})")

    print(f"timing predictor fit ({PREDICTOR_KWARGS['epochs']} epochs, graph vs fused)...")
    predictor = bench_predictor(windows, targets, args.repeats)
    print(
        f"  graph {predictor['graph_seconds']:.2f}s, fused "
        f"{predictor['fused_seconds']:.2f}s ({predictor['speedup']:.2f}x, "
        f"loss curves step-for-step, gap {predictor['loss_curve_gap']:.2e})"
    )

    print(f"timing MAD-GAN fit ({MADGAN_KWARGS['epochs']} epochs, graph vs fused)...")
    madgan = bench_madgan(windows, args.repeats)
    print(
        f"  graph {madgan['graph_seconds']:.2f}s, fused "
        f"{madgan['fused_seconds']:.2f}s ({madgan['speedup']:.2f}x, "
        f"loss curves step-for-step)"
    )

    print(f"timing LSTM-VAE fit ({VAE_KWARGS['epochs']} epochs, graph vs fused)...")
    vae = bench_vae(windows, args.repeats)
    print(
        f"  graph {vae['graph_seconds']:.2f}s, fused "
        f"{vae['fused_seconds']:.2f}s ({vae['speedup']:.2f}x, "
        f"loss curves step-for-step, gap {vae['loss_curve_gap']:.2e})"
    )

    report = {
        "benchmark": "fused_training",
        "config": {
            "patients": ["_".join(map(str, p)) for p in BENCH_PATIENTS],
            "cohort_seed": BENCH_SEED,
            "repeats": args.repeats,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "gradient_parity": {
            "max_gap": gradient_gap,
            "tolerance": GRADIENT_TOLERANCE,
            "within_tolerance": bool(gradient_gap <= GRADIENT_TOLERANCE),
        },
        "predictor_fit": {
            **predictor,
            "target_speedup": TARGET_PREDICTOR_SPEEDUP,
            "meets_target": bool(predictor["speedup"] >= TARGET_PREDICTOR_SPEEDUP),
        },
        "madgan_fit": {
            **madgan,
            "target_speedup": TARGET_MADGAN_SPEEDUP,
            "meets_target": bool(madgan["speedup"] >= TARGET_MADGAN_SPEEDUP),
        },
        # The VAE fit is parity-gated only (loss curves step-for-step); its
        # timing is informational — the ELBO loop shares the fused LSTM
        # kernels already speed-gated by the predictor and MAD-GAN fits.
        "vae_fit": vae,
        "loss_curve_tolerance": LOSS_CURVE_TOLERANCE,
    }
    args.output.write_text(dumps_strict(report, indent=2) + "\n")
    print(
        f"\npredictor fit: {predictor['speedup']:.2f}x "
        f"(target >= {TARGET_PREDICTOR_SPEEDUP:g}x), "
        f"MAD-GAN fit: {madgan['speedup']:.2f}x "
        f"(target >= {TARGET_MADGAN_SPEEDUP:g}x) -> {args.output}"
    )
    if not report["predictor_fit"]["meets_target"]:
        raise SystemExit("predictor-fit speedup target not met")
    if not report["madgan_fit"]["meets_target"]:
        raise SystemExit("MAD-GAN-fit speedup target not met")


if __name__ == "__main__":
    main()
