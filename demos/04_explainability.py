#!/usr/bin/env python3
"""Permutation importance and partial dependence on a known ground truth.

The target depends strongly on feature 0, weakly on feature 1, and not at
all on feature 2, with noise that grows with feature 1. PFI should rank the
features accordingly, and the PDP for both the prediction and the
uncertainty should trace the shapes we built in.
"""

import numpy as np

from gustuq import TrainConfig, train_evidential
from gustuq.xai import partial_dependence, permutation_importance

rng = np.random.default_rng(3)
n = 4000
x = rng.uniform(-1, 1, size=(n, 3))
noise_sd = 0.1 + 0.5 * np.abs(x[:, 1])
y = 3.0 * x[:, 0] + 0.5 * x[:, 1] + noise_sd * rng.standard_normal(n)

print("training on 3 features (only the first two matter) ...")
model, log = train_evidential(
    x[:3200], y[:3200], x[3200:], y[3200:],
    hidden_sizes=[64],
    config=TrainConfig(learning_rate=3e-3, batch_size=128, max_epochs=150,
                       patience=150, evidential_coef=0.01, seed=1),
)
print(f"done after {len(log)} epochs")


print("\n=== permutation feature importance (10 shuffles) ===")
names = ["driver", "noise_shaper", "bystander"]
pfi = permutation_importance(model.mean_and_total_sd, x, y, feature_names=names, n_shuffles=10, seed=0)
print(f"baseline RMSE {pfi.baseline_rmse:.3f}, baseline spread-skill R2 "
      f"{pfi.baseline_r2:.3f}")
for f in pfi.ranked_by_rmse():
    print(f"{f.feature:>13}: dRMSE={f.delta_rmse_mean:+.3f} (sd {f.delta_rmse_sd:.3f})   "
          f"dR2={f.delta_r2_mean:+.3f} (sd {f.delta_r2_sd:.3f})")
print("positive dRMSE: shuffling hurt prediction; positive dR2: it hurt calibration.")

print("\n=== partial dependence of prediction and uncertainty ===")
for j, name in enumerate(names):
    pdp = partial_dependence(model.mean_and_total_sd, x, j, feature_names=names, n_grid=100)
    swing_pred = pdp.pred_mean.max() - pdp.pred_mean.min()
    swing_unc = pdp.uncertainty_mean.max() - pdp.uncertainty_mean.min()
    print(f"{name:>13}: prediction swing {swing_pred:6.3f}   "
          f"uncertainty swing {swing_unc:6.3f} across its range")
print("the driver moves the prediction, the noise shaper moves the")
print("uncertainty, and the bystander moves neither.")
