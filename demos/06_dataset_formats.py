#!/usr/bin/env python3
"""The two on-disk dataset formats, exercised without any real files.

IDX is the big-endian binary layout used by the MNIST-family datasets (magic
2051 for image files, 2049 for label files); USPS ships as whitespace text
with one sample per line.  Both loaders flatten row-major and store training
rows before test rows, and both have exact writers, so a dataset round-trips
bit-identically.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np

from hgssl import load_idx_dataset, load_usps_dataset, synthetic_blobs
from hgssl.datasets import save_idx_dataset, save_usps_dataset

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    # --- IDX: write two 4x4 "images" by hand and load them back.
    images = np.arange(32, dtype=np.uint8).reshape(2, 4, 4)
    with open(tmp / "imgs", "wb") as fh:
        fh.write(struct.pack(">IIII", 2051, 2, 4, 4))
        fh.write(images.tobytes())
    with open(tmp / "lbls", "wb") as fh:
        fh.write(struct.pack(">II", 2049, 2))
        fh.write(bytes([1, 0]))
    ds = load_idx_dataset(tmp / "imgs", tmp / "lbls", tmp / "imgs", tmp / "lbls")
    print("IDX: loaded", ds.features.shape, "features, labels", ds.labels)
    print("pixel (1, 2) of image 0 -> feature column 1*4+2 =",
          ds.features[0, 6], "(raw byte", images[0, 1, 2], "/ 255)")

    # --- USPS text: label then pixels, one line per sample.
    (tmp / "zip.train").write_text("1 " + " ".join(["0.25"] * 16) + "\n")
    (tmp / "zip.test").write_text("0 " + " ".join(["-1.0"] * 16) + "\n")
    usps = load_usps_dataset(tmp / "zip.train", tmp / "zip.test")
    print("\nUSPS: labels", usps.labels, "- native range kept:",
          usps.features.min(), "to", usps.features.max())

    # --- Round trips are bit-identical.
    blobs = synthetic_blobs(n=20, num_classes=2, dim=9, spread=0.1, seed=0)
    save_usps_dataset(blobs, tmp / "b.train", tmp / "b.test")
    again = load_usps_dataset(tmp / "b.train", tmp / "b.test")
    print("\nUSPS round trip bit-identical:",
          np.array_equal(blobs.features, again.features))

    save_idx_dataset(ds, tmp / "ti", tmp / "tl", tmp / "si", tmp / "sl")
    again = load_idx_dataset(tmp / "ti", tmp / "tl", tmp / "si", tmp / "sl")
    print("IDX round trip bit-identical:",
          np.array_equal(ds.features, again.features))
