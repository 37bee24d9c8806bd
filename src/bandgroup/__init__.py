"""Band-letter calculus for braid groups.

Exact braid arithmetic through the faithful free-group action and
Dynnikov coordinates, Hurwitz actions over three coefficient systems,
block combinatorics of reduced involutive words, expressions over
commuting band letters, and a verifier for the relation families of the
subgroups generated by band powers.
"""

from .coxeter import (
    BandPair,
    CoxeterDatum,
    Partition,
    ScopeError,
    commutes_in_brn,
    crossing,
    partition_to_matrix,
    set_partitions,
)
from .braid import (
    ArtinWord,
    FreeWord,
    ImageLimitError,
    Permutation,
    band_to_artin,
    braid_equal,
    free_image,
    parse_braid_word,
    permutation_image,
)
from .coxword import (
    CoxWord,
    JkFactorization,
    act_band_on_cox,
    check_prop7,
    check_prop_trans,
    has_long_subword,
    is_critical,
    is_long,
    jk_factorize,
)
from .hurwitz import GroupContext, GroupTuple, hurwitz_apply
from .raag import (
    RaagExpression,
    canonical_expressions,
    ends_in,
    expression_to_braid,
    injectivity_scan,
    normalize,
)
from .present import (
    Relation,
    block_product_check,
    coset_table_check,
    export_presentation,
    relations_combing,
    relations_sec4,
    relations_thm1,
    relations_thm2,
    relations_thm2_rederivations,
    verify_relations,
)
from .report import RunReport

__all__ = [
    "ArtinWord",
    "BandPair",
    "CoxWord",
    "CoxeterDatum",
    "FreeWord",
    "GroupContext",
    "GroupTuple",
    "ImageLimitError",
    "JkFactorization",
    "Partition",
    "Permutation",
    "RaagExpression",
    "Relation",
    "RunReport",
    "ScopeError",
    "act_band_on_cox",
    "band_to_artin",
    "block_product_check",
    "braid_equal",
    "canonical_expressions",
    "check_prop7",
    "check_prop_trans",
    "commutes_in_brn",
    "coset_table_check",
    "crossing",
    "ends_in",
    "export_presentation",
    "expression_to_braid",
    "free_image",
    "has_long_subword",
    "hurwitz_apply",
    "injectivity_scan",
    "is_critical",
    "is_long",
    "jk_factorize",
    "normalize",
    "parse_braid_word",
    "partition_to_matrix",
    "permutation_image",
    "relations_combing",
    "relations_sec4",
    "relations_thm1",
    "relations_thm2",
    "relations_thm2_rederivations",
    "set_partitions",
    "verify_relations",
]
