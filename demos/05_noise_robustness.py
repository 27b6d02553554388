"""Accuracy under gaussian noise and horizontal motion blur.

Builds a small synthetic corpus once, then re-prepares the face window at
each corruption level and cross-validates. Gaussian variance is on the
[0,1] intensity scale; blur length is in pixels.
"""

import tempfile

import numpy as np

from facestack import (NoiseSpec, StageData, FirstStageSpec, SvmParams,
                       extract_descriptor, load_gray, prepare_pattern,
                       run_kfold, synth_corpus)

params = SvmParams(C=8.0, gamma=0.04)
spec = FirstStageSpec("C1", "F", "hog")

with tempfile.TemporaryDirectory() as td:
    man = synth_corpus(td, 60, seed=0)
    imgs = [load_gray(s.image_path) for s in man.samples]
    y = man.labels()

    def sweep(kind, levels):
        print(f"{kind}:")
        for li, level in enumerate(levels):
            feats = []
            for row, (img, s) in enumerate(zip(imgs, man.samples)):
                noise = NoiseSpec(kind, level, seed=1000 * li + row)
                pat = prepare_pattern(img, s.eye_left, s.eye_right, "F", noise=noise)
                feats.append(extract_descriptor(pat, "hog"))
            rep, _ = run_kfold([StageData(spec, np.asarray(feats))], y,
                               k=5, seed=0, params=params)
            print(f"  level {level:>5}: accuracy {rep.accuracy:.4f}")

    sweep("gaussian", (0.0, 0.025, 0.05, 0.1))
    sweep("motion", (1, 7, 13, 21))
