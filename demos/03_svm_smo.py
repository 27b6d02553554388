"""RBF SVM trained by sequential minimal optimization (LIBSVM's WSS2).

XOR-patterned clusters are the classic case a linear machine cannot fit:
a narrow RBF kernel (large gamma) gets them exactly, while a wide one
(small gamma) is all but linear and stays near chance.
Fits take no seed: the same data and parameters give the same model.
Ends with a grid search over C and gamma, every (fold, point) solved in
one batch.
"""

import numpy as np

from facestack import SvmParams, default_grid, grid_search, make_folds, svm_fit

rng = np.random.default_rng(0)
centers = [(1, 1, 1.0), (-1, -1, 1.0), (1, -1, -1.0), (-1, 1, -1.0)]
X = np.vstack([rng.normal(0, 0.18, (20, 2)) + (cx, cy) for cx, cy, _ in centers])
y = np.concatenate([np.full(20, lab) for _, _, lab in centers])

for gamma in (4.0, 0.01):
    model = svm_fit(X, y, SvmParams(C=4.0, gamma=gamma))
    acc = np.mean(np.where(model.decision_function(X) >= 0, 1, -1) == y)
    print(f"gamma {gamma:>4}: train accuracy {acc:.4f}, "
          f"{len(model.dual_coefs)} support vectors, bias {model.bias:+.3f}")

# scores grow with distance from the boundary
probe = np.array([[1.0, 1.0], [0.0, 0.0], [-1.0, -1.0]])
model = svm_fit(X, y, SvmParams(C=4.0, gamma=4.0))
print("scores at (1,1), (0,0), (-1,-1):",
      np.round(model.decision_function(probe), 3))

folds = make_folds(y, 5, seed=1)
best = grid_search(X, y, folds)
print(f"grid search over {len(default_grid())} candidates picked "
      f"C={best.C} gamma={best.gamma}")
