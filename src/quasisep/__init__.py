"""Exact quasiseparable structure toolkit over word-size prime fields."""

from .field import (OpCounter, Permutation, PrimeField, is_left_triangular,
                    left_part, mat, mat_mul, mat_vec, random_matrix, rank,
                    reverse_cols, reverse_rows, strict_lower, strict_upper,
                    trsm_unit_lower, trsm_upper_right)
from .generators import (BruhatGenerator, CompactBruhatGenerator,
                         CompactEchelon, CompressionError, QsMatrix,
                         TreeGenerator, compact_bruhat, compact_to_bruhat,
                         compress_echelon, lt_bruhat, qs_from_dense,
                         random_left_triangular, random_qs, tree_generator)
from .orders import (QsOrders, lt_rpm, qs_order, qs_order_bruteforce,
                     qs_orders_bruteforce, quasiseparable_orders)
from .pluq import (PluqDecomposition, RankProfileMatrix, check_pluq_structure,
                   pluq_rpm, rpm_bruteforce, rpm_from_pluq)
from .structops import (matvec_bruhat, matvec_qs, matvec_tree, mul_lt_by_flat,
                        mul_lt_lt, mul_qs_qs, qs_to_dense, reconstruct)

__version__ = "0.1.0"

__all__ = [
    "BruhatGenerator", "CompactBruhatGenerator", "CompactEchelon",
    "CompressionError", "OpCounter", "Permutation", "PluqDecomposition",
    "PrimeField", "QsMatrix", "QsOrders", "RankProfileMatrix",
    "TreeGenerator", "check_pluq_structure", "compact_bruhat", "compact_to_bruhat",
    "compress_echelon", "is_left_triangular", "left_part", "lt_bruhat", "lt_rpm",
    "mat", "mat_mul", "mat_vec", "matvec_bruhat", "matvec_qs", "matvec_tree",
    "mul_lt_by_flat", "mul_lt_lt", "mul_qs_qs", "pluq_rpm", "qs_from_dense",
    "qs_order", "qs_order_bruteforce", "qs_orders_bruteforce", "qs_to_dense",
    "quasiseparable_orders", "random_left_triangular", "random_matrix",
    "random_qs", "rank", "reconstruct", "reverse_cols", "reverse_rows",
    "rpm_bruteforce", "rpm_from_pluq", "strict_lower", "strict_upper",
    "tree_generator", "trsm_unit_lower", "trsm_upper_right",
]
