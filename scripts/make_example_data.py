#!/usr/bin/env python3
"""Regenerate data/sample_scores.csv.

The study's raw scores are not available, so this builds a synthetic
standardized 240x5 dataset whose SAMPLE correlation matrix equals
data/observed_correlations.csv to machine precision: draw seed noise from
the package stream, whiten it against its own sample covariance, then color
with the Cholesky factor of the target matrix.

The committed file is canonical, and the tests pin screen outputs on its
bytes: a rerun on another host may differ in the last bit of some cells.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pathtrek import rng
from pathtrek.correlation import load_correlation_csv
from pathtrek.data import Dataset, write_csv

HERE = pathlib.Path(__file__).resolve().parents[1]
SEED = 20240531
N = 240


def exact_correlation_scores(target_r, n, seed):
    k = target_r.shape[0]
    noise = rng.normal_stream(seed, n * k).reshape(n, k)
    centered = noise - noise.mean(axis=0)
    sample_cov = centered.T @ centered / (n - 1)
    white = centered @ np.linalg.inv(np.linalg.cholesky(sample_cov)).T
    return white @ np.linalg.cholesky(target_r).T


def main():
    corr = load_correlation_csv(HERE / "data" / "observed_correlations.csv", N)
    scores = exact_correlation_scores(np.array(corr.r), N, SEED)
    dataset = Dataset(corr.variables, scores)
    out = HERE / "data" / "sample_scores.csv"
    write_csv(dataset, out)
    check = np.corrcoef(scores, rowvar=False)
    print(f"wrote {out} (max |r - target| = {np.abs(check - corr.r).max():.2e})")


if __name__ == "__main__":
    main()
