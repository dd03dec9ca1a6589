"""Distributed skinny-matrix linear algebra over DataFrames.

A *skinny matrix* is a tall-and-narrow dense matrix M in R^{n x r}
(r <= a few hundred) stored as a DataFrame ``(id bigint, vec array<double>)``
— one row per matrix row, keyed by vertex id.  A *sparse matrix* is an
edge-list DataFrame ``(r bigint, c bigint, v double)``.  These two shapes
are all the HOPE/HOPE+ pipeline needs:

* ``spgemm``       — sparse x skinny product (join + scale + Summarizer.sum)
* ``gram``         — M^T M as a small driver-side numpy array (partial
                     sums per Arrow batch, reduced on the driver)
* ``matmul_small`` — skinny x broadcast small dense matrix
* ``svd_topk``     — randomized subspace-iteration truncated SVD of a
                     sparse matrix, returning distributed singular vectors

Only O(r^2) state ever lands on the driver, so the same code shape scales
to the paper's billion-edge regime on a real cluster.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.ml.functions import array_to_vector, vector_to_array
from pyspark.ml.stat import Summarizer
from pyspark.sql import DataFrame, SparkSession

#: Extra columns of the SVD range-finder block beyond the requested rank.
OVERSAMPLE = 8


def random_skinny(spark: SparkSession, ids: DataFrame, r: int, *,
                  seed: int = 42) -> DataFrame:
    """Deterministic pseudo-random skinny matrix (uniform in [-1, 1]) with
    one row per ``id`` in ``ids`` — the range-finder start block for the SVD.

    Entries come from ``xxhash64(id, j, seed)`` so the matrix is fully
    deterministic and computed where the data lives (no driver-side RNG
    materialisation, unlike ``numpy`` + ``createDataFrame``).
    """
    return ids.select(
        "id",
        F.expr(
            f"transform(sequence(0, {r - 1}),"
            f" j -> cast(xxhash64(id, j, {seed}) as double)"
            " / 9.223372036854776e18)"
        ).alias("vec"),
    )


def spgemm(edges: DataFrame, skinny: DataFrame) -> DataFrame:
    """Y = A S: sparse ``edges`` ``(r, c, v)`` times a skinny matrix keyed
    by ``c``.  Returns a skinny matrix keyed by the ``r`` ids that have at
    least one edge (all-zero rows are dropped)."""
    scaled = (
        edges.join(skinny.withColumnRenamed("id", "c"), on="c")
        .select(
            F.col("r").alias("id"),
            array_to_vector(
                F.transform("vec", lambda x: x * F.col("v"))
            ).alias("sv"),
        )
    )
    return (
        scaled.groupBy("id")
        .agg(Summarizer.sum(F.col("sv")).alias("s"))
        .select("id", vector_to_array("s").alias("vec"))
    )


def _partials(skinny: DataFrame, fn, width: int) -> np.ndarray:
    """Apply ``fn`` to every non-empty Arrow batch of ``skinny`` (as the
    stacked rows of ``vec``) on the executors and collect the results:
    an array with one row of ``width`` values per batch, and zero rows
    for an empty input.  Callers reduce the rows on the driver.

    ``fn`` is shipped to the executors by value, so it must be a closure
    that uses only numpy: executors need not be able to import ``repro``.
    """
    def run(batches):
        for pdf in batches:
            if len(pdf):
                out = fn(np.vstack(pdf["vec"].to_numpy()))
                yield pd.DataFrame({"p": [np.ravel(out)]})

    parts = skinny.mapInPandas(run, "p array<double>").toPandas()["p"]
    return np.vstack(parts.to_numpy()) if len(parts) else np.zeros((0, width))


def gram(skinny: DataFrame, r: int) -> np.ndarray:
    """G = M^T M in R^{r x r}: partial Grams on the executors, summed on
    the driver."""
    parts = _partials(skinny, lambda M: M.T @ M, r * r)
    return parts.sum(axis=0).reshape(r, r)


def colwise_maxabs_value(skinny: DataFrame, r: int) -> np.ndarray:
    """Per column, the signed value of the entry with the largest absolute
    value — used to fix the sign indeterminacy of computed eigenvectors
    (flip each column so its dominant entry is positive)."""
    def pick(M):
        return M[np.abs(M).argmax(axis=0), np.arange(M.shape[1])]

    P = _partials(skinny, pick, r)
    return pick(P) if len(P) else np.zeros(r)


def matmul_small(skinny: DataFrame, small: np.ndarray) -> DataFrame:
    """Y = M S for a broadcastable dense ``small`` in R^{r x m}."""
    spark = skinny.sparkSession
    bc = spark.sparkContext.broadcast(np.asarray(small, dtype=np.float64))

    def mult(batches):
        S = bc.value
        for pdf in batches:
            if len(pdf):
                M = np.vstack(pdf["vec"].to_numpy()) @ S
                yield pd.DataFrame({"id": pdf["id"], "vec": list(M)})

    return skinny.mapInPandas(mult, "id bigint, vec array<double>")


def row_normalize(skinny: DataFrame) -> DataFrame:
    """L2-normalise every row; all-zero rows are left as zeros."""
    norm = F.sqrt(
        F.aggregate("vec", F.lit(0.0), lambda acc, x: acc + x * x)
    )
    return skinny.withColumn("_n", norm).select(
        "id",
        F.when(F.col("_n") > 0,
               F.transform("vec", lambda x: x / F.col("_n")))
        .otherwise(F.col("vec"))
        .alias("vec"),
    )


def _chol_inv(G: np.ndarray) -> np.ndarray:
    """R^{-1} for G = R^T R, with a tiny ridge for rank-deficient blocks."""
    r = G.shape[0]
    ridge = max(np.trace(G), 1.0) * 1e-12
    R = np.linalg.cholesky(G + ridge * np.eye(r)).T
    return np.linalg.inv(R)


def svd_topk(edges: DataFrame, rank: int, *, n_iter: int = 6,
             seed: int = 42) -> tuple[DataFrame, np.ndarray]:
    """Top-``rank`` left singular vectors and singular values of a sparse
    matrix A given as an edge list ``(r, c, v)``.

    Randomized subspace iteration on A A^T (Halko, Martinsson & Tropp
    2011) with CholeskyQR folded into the next product: each pass forms
    Y <- A (A^T (Y R^-1)) and then R^-1 from the Gram of the new Y, so the
    orthonormal basis Y R^-1 is never materialised.  Rayleigh–Ritz uses
    the Gram of Z = A^T Y R^-1.  Returns ``(U, s)`` where U has one row
    per ``r`` id of the edges and ``s`` holds the singular values
    (descending); ``rank`` is clamped to the smaller of the ``r`` and
    ``c`` id counts.
    """
    edges = edges.select("r", "c", "v").localCheckpoint(eager=True)
    edges_t = edges.toDF("c", "r", "v").localCheckpoint(eager=True)  # A^T
    n_rows, n_cols = edges.agg(F.countDistinct("r"),
                               F.countDistinct("c")).first()
    r = min(rank + OVERSAMPLE, n_rows, n_cols)  # cannot exceed either dimension
    rank = min(rank, r)

    row_ids = edges.select(F.col("r").alias("id")).distinct()
    Y = random_skinny(edges.sparkSession, row_ids, r, seed=seed)
    R_inv = np.eye(r)  # only the span of the start block matters
    for _ in range(n_iter):
        Y = spgemm(edges, spgemm(edges_t, matmul_small(Y, R_inv)))
        Y = Y.localCheckpoint(eager=True)  # truncate lineage in iterations
        R_inv = _chol_inv(gram(Y, r))
    M = gram(spgemm(edges_t, matmul_small(Y, R_inv)), r)  # PSD
    w, W = np.linalg.eigh((M + M.T) / 2)
    order = np.argsort(w)[::-1][:rank]
    s = np.sqrt(np.maximum(w[order], 0.0))
    U = matmul_small(Y, R_inv @ W[:, order])
    return U.localCheckpoint(eager=True), s
