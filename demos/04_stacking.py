"""Two-stage stacking beats its own first-stage models.

The fixture gives each feature view a clean signal on a different half of
the samples. Either single model is mediocre; the meta SVM over their
out-of-fold scores learns when to trust which column. An extra external
score column (here an oracle) rides along through the same interface.
"""

import numpy as np

from facestack import (FirstStageSpec, ScoreMatrix, SvmParams, make_folds,
                       oof_scores, stack_fit, stack_scores, svm_fit)

rng = np.random.default_rng(5)
n = 400
y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
half = rng.random(n) < 0.5
a = rng.normal(0, 1, (n, 4))
b = rng.normal(0, 1, (n, 4))
a[half, 0] = y[half] * 2 + rng.normal(0, 0.3, half.sum())
b[~half, 0] = y[~half] * 2 + rng.normal(0, 0.3, (~half).sum())

train = np.arange(n) < 240
specs = [FirstStageSpec("C1", "custom", "raw"), FirstStageSpec("C3", "custom", "raw")]
params = SvmParams(C=1.0, gamma=0.095)
folds = make_folds(y[train], 5, seed=1)

def acc(scores):
    return np.mean(np.where(scores >= 0, 1, -1) == y[~train])

for name, X in (("view a", a), ("view b", b)):
    m = svm_fit(X[train], y[train], params)
    print(f"single {name}: test accuracy {acc(m.decision_function(X[~train])):.3f}")

# the meta stage trains on out-of-fold first-stage scores, never on
# scores a model produced for its own training rows
oof = oof_scores([a[train], b[train]], y[train], folds, specs, params=params)
print(f"out-of-fold score matrix: {oof.scores.shape}, columns {oof.column_ids}")

stacked = stack_fit([a[train], b[train]], y[train], folds, specs,
                    params=params)
print(f"stacked: test accuracy {acc(stack_scores(stacked, [a[~train], b[~train]])):.3f}")

ext = ScoreMatrix(y[train, None] * 3.0, ("EXT",))  # row i scores training row i
with_ext = stack_fit([a[train], b[train]], y[train], folds, specs,
                     external_scores=ext, params=params)
s = stack_scores(with_ext, [a[~train], b[~train]],
                 external=ScoreMatrix(y[~train, None] * 3.0, ("EXT",)))
print(f"stacked + oracle column: test accuracy {acc(s):.3f} "
      f"(columns {with_ext.column_ids})")
