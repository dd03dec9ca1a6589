"""Distributed skinny-matrix linear algebra over Spark DataFrames."""
from .skinny import (
    gram,
    matmul_small,
    random_skinny,
    row_normalize,
    spgemm,
    svd_topk,
)

__all__ = [
    "gram",
    "matmul_small",
    "random_skinny",
    "row_normalize",
    "spgemm",
    "svd_topk",
]
