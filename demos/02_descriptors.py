"""Local descriptors over a normalized face window.

Each descriptor is a concatenation of per-cell statistics over a grid.
Shows dimensionalities, a few raw codes, and which histogram cells react
when the texture changes.
"""

import numpy as np

from facestack import (DESCRIPTOR_IDS, U2_TABLE, extract_descriptor,
                       lbp_code_map, lsp_code_map, nilbp_code_map,
                       prepare_pattern, synth_sample)

rng = np.random.default_rng(7)
img, el, er, _ = synth_sample(rng, "male")
pat = prepare_pattern(img, el, er, "F")

print("descriptor dimensions on the 59x65 face window:")
for did in DESCRIPTOR_IDS:
    v = extract_descriptor(pat, did)
    print(f"  {did:>8}: {v.shape[0]:5d} dims, L1 mass {np.abs(v).sum():.2f}")

# the code maps cover the interior pixels: pixel (x, y) is entry [y - 1, x - 1]
codes = lbp_code_map(pat)
x, y = 30, 32
lbp = codes[y - 1, x - 1]
print(f"\ncodes at pixel ({x},{y}): lbp={lbp} (u2 bin {U2_TABLE[lbp]}), "
      f"nilbp={nilbp_code_map(pat)[y - 1, x - 1]}, lsp={lsp_code_map(pat)[y - 1, x - 1]}")

# uniform codes cover most of a natural image
uniform = (U2_TABLE[codes] < 58).mean()
print(f"uniform LBP codes on this window: {uniform:.1%} of pixels")

# a vertical versus horizontal stripe flips the dominant HOG bins
ramp_v = np.tile((np.arange(64, dtype=np.uint8) * 4), (64, 1))
hog_v = extract_descriptor(ramp_v, "hog").reshape(64, 9)
hog_h = extract_descriptor(ramp_v.T.copy(), "hog").reshape(64, 9)
print(f"vertical-edge image: dominant orientation bin {hog_v.sum(axis=0).argmax()}")
print(f"horizontal-edge image: dominant orientation bin {hog_h.sum(axis=0).argmax()}")
