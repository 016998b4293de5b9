"""A tour of the five lag-embedding regressors on the same task.

All five consume the same supervised frame (24 lagged values -> next
value) and differ only in the function class they fit: a linear model,
nearest neighbours, a Gaussian process, support vector regression, and a
small neural network. The tour fits each one on the first 80% of a
synthetic daily-cycle series and compares one-step-ahead accuracy on the
held-out tail, plus each model's characteristic extras.
"""

import numpy as np

from wattcast import (
    GpModel,
    KnnModel,
    MlpModel,
    OlsModel,
    SupervisedFrame,
    SvrModel,
    lag_embed,
)
from wattcast.synthetic import household_series

series = household_series(1200, seed=7)
frame = lag_embed(series, p=24)
n_train = int(0.8 * len(series))

train_rows = frame.target_positions < n_train
train = SupervisedFrame(frame.X[train_rows], frame.y[train_rows], 24,
                        frame.feature_names, frame.target_positions[train_rows])
test = ~train_rows
X_test, y_test = frame.X[test], frame.y[test]
print(f"{train.n_samples} training windows, {X_test.shape[0]} test windows\n")

models = [
    ("ols", OlsModel()),
    ("knn", KnnModel(k=3)),
    ("gp", GpModel()),
    ("svr", SvrModel()),
    ("mlp", MlpModel(seed=0)),
]
for name, model in models:
    model.fit(train)
    rmse = float(np.sqrt(np.mean((model.predict_batch(X_test) - y_test) ** 2)))
    print(f"{name:4s} one-step RMSE: {rmse:12,.0f} mW")

print("\n--- what each model exposes beyond point predictions ---")

gp = next(m for n, m in models if n == "gp")
mean, var = gp.predict_with_variance(X_test[0])
print(f"gp : predictive interval {mean:,.0f} +/- {2 * np.sqrt(var):,.0f} mW (2 sd)")

svr = next(m for n, m in models if n == "svr")
print(f"svr: {svr.support_.size} of {train.n_samples} windows became "
      f"support vectors (converged={svr.converged_})")

mlp = next(m for n, m in models if n == "mlp")
curve = mlp.loss_curve_
print(f"mlp: training RMSE fell {curve[0]:.3f} -> {curve[-1]:.3f} "
      f"(standardized units) over {len(curve)} epochs; the curve never "
      f"increases: {bool(np.all(np.diff(curve) <= 0))}")

ols = next(m for n, m in models if n == "ols")
weights = np.abs(ols.coef_)
top = np.argsort(weights)[::-1][:3]
names = [train.feature_names[i] for i in top]
print(f"ols: heaviest lags {names} — the most recent hour dominates")

# Recursive multi-step forecasting feeds predictions back as inputs.
horizon = 24
path = ols.predict_series(series.values[:n_train], horizon)
actual = series.values[n_train:n_train + horizon]
print(f"\nrecursive 24h forecast (ols) RMSE: "
      f"{np.sqrt(np.mean((path - actual) ** 2)):,.0f} mW "
      "(error compounds as predictions feed back)")
