"""Splice unknotting counts and crosscap numbers of knot projections.

The package computes, for knot projections given as signed Gauss codes:

* the splice unknotting count ``u_minus`` (minimum number of non-kink
  splices over all descents to the simple closed curve) with replayable
  witnesses,
* upper bounds for the two-way count ``u_upper``, which also allows
  inserting kinks and half-twist bands, from band insertions followed by
  an exact descent,
* state-surface Euler characteristics and crosscap numbers of the
  alternating knots the projections carry (minimal-genus branching),
* twist-region family generators and the classifier of projections with
  small splice counts, and
* a verification harness over the bundled table of prime projections with
  up to eight double points.
"""

from .curvemap import (
    CurveMap,
    Face,
    FaceReport,
    O_KEY,
    O_MAP,
    SignedGaussCode,
    build_map,
    canonical_key,
    components,
    equivalent,
    extract_code,
    faces,
    interleaved,
    mirror_map,
    parse_code,
    parse_record,
    render_code,
)
from .errors import (
    DegenerateOnO,
    InvalidMove,
    MultiComponentError,
    NotRealizable,
    ParseError,
    SpliceCapError,
)
from .families import (
    ClassKind,
    ClassLabel,
    FamilySpec,
    Pretzel,
    Rational,
    Sum,
    Torus,
    classify_projection,
    connected_sum,
    decompose_prime,
    gen_family,
    gen_pretzel,
    gen_rational,
    gen_torus,
    is_prime,
    match_family,
)
from .pipeline import (
    ExternalCrosscapRow,
    ReportRow,
    TableEntry,
    bundled_external_path,
    bundled_table_path,
    bundled_witness_path,
    emit_report,
    ingest_external,
    ingest_table,
    verify_observation,
)
from .search import (
    EqualityReport,
    SearchBudget,
    SearchStatus,
    UResult,
    VerifyResult,
    Witness,
    check_upper_bound,
    enumerate_descents,
    equality_report,
    replay,
    sigma_from_witness,
    u_minus,
    u_upper,
    verify_witness,
)
from .splices import (
    SmoothingChoice,
    SpliceKind,
    State,
    apply_state,
    classify_splice,
    is_seifert_state,
    make_state,
    reduce_ri,
    ri_plus,
    s_plus,
    seifert_genus,
    smooth,
    state_chi,
    twist_move,
)
from .surfaces import AKResult, ak_min_genus, crosscap_alt

__version__ = "0.1.0"
