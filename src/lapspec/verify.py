"""Verification suites over the dumbbell/theta family.

Each suite runs one claim over an explicit finite grid and returns a
VerificationReport: exact integer checks, no tolerances, counterexamples
listed with enough context to replay by hand.  Suites that sample use a
caller-supplied seed so reruns are bit-identical.

A suite body returns only ``(scope, counts, counterexamples[, details])``.
The ``_suite`` runner it is registered with builds the report around it:
it binds the arguments against the body's signature, records every one
except ``cache_dir`` as the report's parameters, refuses negative bounds,
times the call and sets ``passed`` from the counterexamples.  ``SUITES``
maps each suite name to its function; the CLI derives its flags from
their signatures.

The determination and cospectral-structure suites compare each family
member with every connected (n, n+1) graph of their pool.  A pool graph is
a candidate mate of a member only when det(x0 I - L) equals the member's
recurrence charpoly at x0 = -3, an exact integer; only candidates get a
Berkowitz charpoly, and a mate is a candidate whose charpoly equals the
member's.  Equal charpolys have equal values, so the filter never drops a
mate, and every reported match is still an exact matrix-vs-recurrence
match.  For x0 < 0 the matrix x0 I - L is negative definite, so no value
is 0; at x0 = -3 the only candidates for n = 6..12 are the members' own
copies.  A value is ``laplacian._charpoly_value``: hung trees peeled leaves
first, then every chain of the 2-core folded into its end hubs by transfer
products.  Every Schur complement of a negative definite matrix is negative
definite, so no peeled P is 0, and the core matrix is such a complement
with each row scaled by a nonzero Q.  A chain's continuant is the
determinant of a principal submatrix of that core matrix, a negative
definite block times the nonzero Q of its rows, so no continuant is 0 at
x0 < 0 and no pool graph's value falls back to Bareiss.

The two suites share the decoded graphs and the values of their pool:
both are kept for the last pool and reused only while the enumeration memo
still holds that very list of forms, so clearing the memo ends the reuse
and the next suite decodes the pool and computes its values afresh.  They
are the only suites that take ``cache_dir``: the census grows both of its
routes on every run, so no cache file can stand in for either.

The certified statements are the finite ones actually executed here (the
report's scope says which); nothing unbounded is claimed.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import asdict
from itertools import islice
from random import Random
from typing import Callable

from . import enumeration, recurrences
from .canonical import canonical_form
from .enumeration import (DEFAULT_CAP, EnumerationCapError, EnumerationTask,
                          enumerate_by_vertex_growth, enumerate_graphs,
                          random_connected_graph)
from .graph6 import graph6_decode, graph6_encode
from .graphs import (DumbbellParams, FamilyParams, Graph, ThetaParams,
                     classify_bicyclic, connected_components, dumbbell_graph,
                     dumbbell_parameter_grid, make_dumbbell, make_path,
                     make_theta, theta_graph, theta_parameter_grid)
from .invariants import (InvalidCharpolyError, SpectralInvariants,
                         degree_constraint_solver, invariants_from_charpoly)
from .laplacian import (_charpoly_value, charpoly, laplacian,
                        laplacian_charpoly, spanning_tree_count,
                        trailing_charpolys, u_matrix, verify_deletion_formula)
from .polynomials import IntPoly, X
from .recurrences import (_generating_identity_holds, _interior_sequence,
                          _path_sequence, _u_table, dumbbell_charpoly_rec,
                          dumbbell_value_at4, path_value_at4, theta_charpoly_rec,
                          theta_value_at4, u_value_at2, u_value_at4)
from .reports import VerificationReport
from .termtables import audit_dumbbell_identity, audit_theta_identity

DEFAULT_SEED = 20260825

# Arguments that say where work is cached, not what is checked; they are
# not recorded in a report's parameters.
UNRECORDED = ("cache_dir",)

SUITES: dict[str, Callable[..., VerificationReport]] = {}


def _suite(name: str):
    """Register a suite body under ``name`` and wrap it in the report runner.

    The body returns ``(scope, counts, counterexamples[, details])``; the
    suite passes iff it found no counterexample.  Every int argument except
    ``seed`` is a bound and must be >= 0.  The registered function keeps the
    body's name, docstring and signature, and returns the report."""
    def register(body: Callable[..., tuple]) -> Callable[..., VerificationReport]:
        signature = inspect.signature(body)

        @functools.wraps(body)
        def run(*args, **kwargs) -> VerificationReport:
            start = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            parameters = {key: value for key, value in bound.arguments.items()
                          if key not in UNRECORDED}
            for key, value in parameters.items():
                if key != "seed" and isinstance(value, int) and value < 0:
                    raise ValueError(f"{key} must be >= 0, got {value}")
            scope, counts, counterexamples, *details = body(*bound.args, **bound.kwargs)
            return VerificationReport(
                suite=name,
                scope=scope,
                parameters=parameters,
                passed=not counterexamples,
                counts=counts,
                counterexamples=counterexamples,
                details=details[0] if details else {},
                wall_time_s=time.perf_counter() - start,
            )

        SUITES[name] = run
        return run
    return register


def _dumbbell_grid(p_max: int, k_max: int) -> list[DumbbellParams]:
    """Normalized dumbbells p >= q >= 3 with p <= p_max and k <= k_max, in
    (p, q, k) order."""
    return [DumbbellParams(p, k, q)
            for p in range(3, p_max + 1)
            for q in range(3, p + 1)
            for k in range(k_max + 1)]


def _theta_grid(r_max: int) -> list[ThetaParams]:
    """Normalized thetas r >= s >= t >= 0, (s, t) != (0, 0), with r <= r_max,
    in (r, s, t) order."""
    return [ThetaParams(r, s, t)
            for r in range(r_max + 1)
            for s in range(r + 1)
            for t in range(s + 1)
            if (s, t) != (0, 0)]


def family_members(n: int) -> list[Graph]:
    """Every dumbbell and theta on exactly n vertices, dumbbells first,
    each carrying its parameters in Graph.family."""
    if n < 4:
        return []
    members = [make_dumbbell(d.p, d.k, d.q) for d in dumbbell_parameter_grid(n)]
    members += [make_theta(h.r, h.s, h.t) for h in theta_parameter_grid(n)]
    return members


def _family_charpoly(params: FamilyParams) -> IntPoly:
    """Laplacian charpoly of the dumbbell or theta with these parameters,
    via its recurrence."""
    if isinstance(params, DumbbellParams):
        return dumbbell_charpoly_rec(params.p, params.k, params.q)
    if isinstance(params, ThetaParams):
        return theta_charpoly_rec(params.r, params.s, params.t)
    raise ValueError("graph does not carry dumbbell or theta parameters")


def _family_value(params: FamilyParams, x: int, u) -> int:
    """The recurrence formula of the dumbbell or theta with these parameters
    run in the integers at x, with u = _u_table(x, top) for a top at least
    its largest parameter.  Evaluation at x is a ring homomorphism Z[x] -> Z,
    so this is exactly ``_family_charpoly(params).eval(x)``; the formula is
    read from the recurrences module, the one the charpoly route runs."""
    if isinstance(params, DumbbellParams):
        return recurrences._dumbbell(x, u, params.p, params.k, params.q)
    return recurrences._theta(x, u, params.r, params.s, params.t)


def member_charpoly(g: Graph) -> IntPoly:
    """Laplacian charpoly of a family member via its recurrence, dispatched
    on the parameters stored in Graph.family."""
    return _family_charpoly(g.family)


def _params_dict(params: FamilyParams) -> dict:
    if isinstance(params, DumbbellParams):
        return {"family": "dumbbell", "p": params.p, "k": params.k, "q": params.q}
    return {"family": "theta", "r": params.r, "s": params.s, "t": params.t}


def _g6(g: Graph) -> str:
    return canonical_form(g).decode("ascii")


# The point at which pool graphs and members are compared before any
# Berkowitz run, and at which within-family keys its members; see the
# module docstring for why it is negative.
_X0 = -3

# The forms list of the last pool whose values at _X0 were computed, and
# those values in pool order.  One slot: it keeps no graphs, and a reference
# to the forms list only so that an identity check against the memo is sound.
_pool_values: tuple[list[bytes] | None, list[int]] = (None, [])


def _bicyclic_pool(n: int, cap: int,
                   cache_dir) -> tuple[list[Graph], list[bytes], list[int]]:
    """All connected (n, n+1) graphs, their canonical forms and their
    values det(_X0 I - L), in pool order.

    The pool is always enumerated, and ``enumerate_graphs`` decodes it only
    when it is not the pool it decoded last.  The values are reused only
    while ``enumeration._memo`` still holds the very forms list they were
    computed for; any other pool, or the same pool after the memo was
    cleared, has them computed again."""
    global _pool_values
    task = EnumerationTask(n, n + 1, connected=True)
    pool = enumerate_graphs(task, cap=cap, cache_dir=cache_dir)
    forms = enumeration._memo[task]
    kept, values = _pool_values
    if forms is not kept:
        values = [_charpoly_value(g, _X0) for g in pool]
        _pool_values = (forms, values)
    return pool, forms, values


def _pool_mates(pool: list[Graph], values: list[int],
                phis: list[IntPoly]) -> list[list[int]]:
    """For each charpoly in phis, the indices of the pool graphs whose
    Berkowitz charpoly equals it, in pool order.  Only pool graphs whose
    value matches phi at _X0 are candidates, and each candidate's charpoly
    is computed once."""
    by_value: defaultdict[int, list[int]] = defaultdict(list)
    for i, value in enumerate(values):
        by_value[value].append(i)
    confirmed: dict[int, IntPoly] = {}
    mates = []
    for phi in phis:
        candidates = by_value.get(phi.eval(_X0), [])
        for i in candidates:
            if i not in confirmed:
                confirmed[i] = charpoly(laplacian(pool[i]))
        mates.append([i for i in candidates if confirmed[i] == phi])
    return mates


def _members_and_mates(n: int, cap: int, cache_dir) -> tuple[
        list[Graph], list[IntPoly], list[Graph], list[bytes], list[list[int]]]:
    """What both pool suites start from: the family members on n vertices,
    their recurrence charpolys, the pool and its forms, and for each member
    the indices of its mates in the pool (``_pool_mates``)."""
    if n < 4:
        raise ValueError("need n >= 4 for the family to be nonempty")
    members = family_members(n)
    pool, forms, values = _bicyclic_pool(n, cap, cache_dir)
    phis = [member_charpoly(g) for g in members]
    return members, phis, pool, forms, _pool_mates(pool, values, phis)


@_suite("recurrences")
def verify_recurrences(path_n_max: int = 40, p_max: int = 8, k_max: int = 5,
                       r_max: int = 8) -> VerificationReport:
    """Recurrence route equals direct matrix charpoly, exactly: paths and
    cycle-interior matrices up to path_n_max, dumbbells over the full
    p,q in [3,p_max] x k in [0,k_max] grid (both orders of p and q), thetas
    with r <= r_max.

    A graph's matrix charpoly is ``laplacian_charpoly``: one exact
    elimination of its own Laplacian at a Kronecker point x = 2^b, hung
    trees peeled and chains folded into at most two hubs, read back as
    balanced base-2^b digits.  The interior matrices, which are no graph's
    Laplacian, take theirs from one Berkowitz run on u_matrix(path_n_max)
    (``trailing_charpolys``).  Neither route shares code with the
    recurrences."""
    counterexamples = []
    counts = {"paths": 0, "interior_matrices": 0, "dumbbells": 0, "thetas": 0}

    for n, phi in zip(range(1, path_n_max + 1), islice(_path_sequence(X), 1, None)):
        counts["paths"] += 1
        if phi != laplacian_charpoly(make_path(n)):
            counterexamples.append({"case": "path", "n": n})
    # u_matrix(n) is the trailing n x n block of u_matrix(path_n_max).
    interior = trailing_charpolys(u_matrix(path_n_max))
    for n, phi in zip(range(path_n_max + 1), islice(_interior_sequence(X), 2, None)):
        counts["interior_matrices"] += 1
        if phi != interior[n]:
            counterexamples.append({"case": "interior", "n": n})
    for p in range(3, p_max + 1):
        for q in range(3, p_max + 1):
            for k in range(k_max + 1):
                counts["dumbbells"] += 1
                if dumbbell_charpoly_rec(p, k, q) != laplacian_charpoly(dumbbell_graph(p, k, q)):
                    counterexamples.append({"case": "dumbbell", "p": p, "k": k, "q": q})
    for h in _theta_grid(r_max):
        counts["thetas"] += 1
        if theta_charpoly_rec(h.r, h.s, h.t) != laplacian_charpoly(theta_graph(h.r, h.s, h.t)):
            counterexamples.append({"case": "theta", "r": h.r, "s": h.s, "t": h.t})
    return (f"paths and interior matrices n <= {path_n_max}; dumbbells "
            f"p,q in [3,{p_max}], k in [0,{k_max}]; thetas r <= {r_max}",
            counts, counterexamples)


@_suite("special-values")
def verify_special_values(n_max: int = 200) -> VerificationReport:
    """Closed forms at special points, exactly: path charpoly at 4 equals 4n,
    interior charpoly at 4 equals n+1, interior charpoly at 2 alternates
    0 / +-1 with the sign of n/2.

    Evaluation at an integer point is a ring homomorphism Z[x] -> Z, so the
    recurrence f(j+1) = (x - 2) f(j) - f(j-1) run in the integers at x = 4
    and x = 2, from the seeds at that point, gives exactly the values of the
    polynomials phi(P_n) and phi(U_n) there.  The walk keeps two small
    integers per sequence and builds no polynomial, so the suite costs O(n)
    integer operations."""
    counterexamples = []
    walks = zip(range(n_max + 1), _path_sequence(4),
                islice(_interior_sequence(4), 2, None), islice(_interior_sequence(2), 2, None))
    for n, pv, uv, u2 in walks:
        if pv != path_value_at4(n):
            counterexamples.append({"case": "path_at_4", "n": n, "value": pv})
        if uv != u_value_at4(n):
            counterexamples.append({"case": "interior_at_4", "n": n, "value": uv})
        if u2 != u_value_at2(n):
            counterexamples.append({"case": "interior_at_2", "n": n, "value": u2})
    return (f"values at x=4 and x=2 for n <= {n_max}",
            {"evaluations": 3 * (n_max + 1)}, counterexamples)


@_suite("generating-identity")
def verify_generating_identity(r_max: int = 50) -> VerificationReport:
    """The substituted interior charpoly times y^(r+2) - y^r telescopes to
    y^(2r+2) - 1, exactly, for r <= r_max."""
    interior = islice(_interior_sequence(X), 2, r_max + 3)
    counterexamples = [{"r": r} for r, u_r in enumerate(interior)
                       if not _generating_identity_holds(r, u_r)]
    return f"r <= {r_max}", {"checked": r_max + 1}, counterexamples


def _audit_grid(grid: list[FamilyParams], audit) -> tuple[dict, list, dict]:
    """Counts, counterexamples and per-tuple details of a term-table audit."""
    counterexamples = []
    mismatched_tuples = 0
    diff_terms = 0
    tuple_status = []
    for params in grid:
        pd = _params_dict(params)
        result = audit(params)
        if not result["routes_agree"]:
            counterexamples.append({**pd, "failure": "computational routes disagree"})
        if not result["table_matches"]:
            mismatched_tuples += 1
            diff_terms += len(result["diffs"])
        tuple_status.append({**pd, "table_matches": result["table_matches"],
                             "diffs": result["diffs"]})
    counts = {"tuples": len(grid), "table_mismatched_tuples": mismatched_tuples,
              "table_diff_terms": diff_terms}
    return counts, counterexamples, {"tuples": tuple_status}


@_suite("dumbbell-table")
def verify_dumbbell_table(p_max: int = 8, k_max: int = 5) -> VerificationReport:
    """Audit the dumbbell term table over the normalized grid.  Passing means
    the matrix and recurrence routes agree on every tuple; the table column
    reports how the published term data compares against both."""
    return (f"p in [3,{p_max}], q in [3,p], k in [0,{k_max}]",
            *_audit_grid(_dumbbell_grid(p_max, k_max),
                         lambda d: audit_dumbbell_identity(d.p, d.k, d.q)))


@_suite("theta-table")
def verify_theta_table(r_max: int = 8) -> VerificationReport:
    """Audit the theta term table for r <= r_max.  Same pass condition as the
    dumbbell audit; the table data carries one known bad printed coefficient
    (see the data file header), which shows up in the diff counts rather
    than failing the suite."""
    return (f"r <= {r_max}, normalized parameters",
            *_audit_grid(_theta_grid(r_max),
                         lambda h: audit_theta_identity(h.r, h.s, h.t)))


@_suite("family-values")
def verify_family_values(p_max: int = 8, k_max: int = 5,
                         r_max: int = 8) -> VerificationReport:
    """Closed forms for the family charpolys at x=4 equal direct evaluation
    over the grids; includes the 5-vertex theta with all bridge paths of one
    interior vertex, whose value at 4 is -16 by its known spectrum.

    As in special-values, the direct evaluation runs the recurrence
    formulas in the integers at x = 4 (``_family_value``), from one table
    of u(j) at 4; that is exactly the value of the recurrence charpoly
    there, and no polynomial is built."""
    dumbbells = _dumbbell_grid(p_max, k_max)
    thetas = _theta_grid(r_max)
    u = _u_table(4, max(p_max, k_max, r_max, 1))
    counterexamples = [_params_dict(d) for d in dumbbells
                       if _family_value(d, 4, u) != dumbbell_value_at4(d.p, d.k, d.q)]
    counterexamples += [_params_dict(h) for h in thetas
                        if _family_value(h, 4, u) != theta_value_at4(h.r, h.s, h.t)]
    spot = _family_value(ThetaParams(1, 1, 1), 4, u)
    if spot != -16 or theta_value_at4(1, 1, 1) != -16:
        counterexamples.append({"family": "theta", "r": 1, "s": 1, "t": 1,
                                "failure": f"spot value {spot} != -16"})
    return (f"dumbbells p,q in [3,{p_max}], k in [0,{k_max}]; thetas r <= {r_max}",
            {"evaluations": len(dumbbells) + len(thetas), "spot_checks": 1},
            counterexamples)


def _refuse_below_two(name: str, n_max: int, samples: int) -> None:
    """A sampled graph has 2..n_max vertices, so any samples need n_max >= 2."""
    if samples and n_max < 2:
        raise ValueError(f"{name} must be >= 2 when samples > 0, got {n_max}")


@_suite("deletion-formula")
def verify_deletion_suite(family_n_max: int = 12, samples: int = 100,
                          sample_n_max: int = 9,
                          seed: int = DEFAULT_SEED) -> VerificationReport:
    """Vertex deletion expansion checked at every vertex of every family
    member with n <= family_n_max, then at every vertex of seeded random
    connected graphs with n <= sample_n_max."""
    _refuse_below_two("sample_n_max", sample_n_max, samples)
    counterexamples = []
    checks = 0
    members = 0
    for n in range(4, family_n_max + 1):
        for g in family_members(n):
            members += 1
            checks += g.n
            counterexamples += [{**_params_dict(g.family), "vertex": u}
                                for u, holds in enumerate(verify_deletion_formula(g))
                                if not holds]
    rng = Random(seed)
    for _ in range(samples):
        g = random_connected_graph(rng, rng.randint(2, sample_n_max), rng.randint(0, 4))
        checks += g.n
        counterexamples += [{"graph6": _g6(g), "vertex": u}
                            for u, holds in enumerate(verify_deletion_formula(g))
                            if not holds]
    return (f"all vertices of family members n <= {family_n_max} plus "
            f"{samples} random connected graphs n <= {sample_n_max}",
            {"family_members": members, "vertex_checks": checks}, counterexamples)


@_suite("invariants")
def verify_invariants_suite(samples: int = 200, n_max: int = 10,
                            seed: int = DEFAULT_SEED) -> VerificationReport:
    """Invariants read off the charpoly coefficients match direct counts
    (component search, matrix-tree cofactor, degree squares) on seeded
    random connected graphs."""
    _refuse_below_two("n_max", n_max, samples)
    counterexamples = []
    rng = Random(seed)
    for _ in range(samples):
        g = random_connected_graph(rng, rng.randint(2, n_max), rng.randint(0, 4))
        inv = invariants_from_charpoly(charpoly(laplacian(g)))
        direct = {
            "vertices": g.n,
            "edges": g.m,
            "components": len(connected_components(g)),
            "spanning_trees": spanning_tree_count(g),
            "degree_square_sum": sum(d * d for d in g.degree_sequence()),
        }
        if inv != SpectralInvariants(**direct):
            counterexamples.append({"graph6": _g6(g), "derived": asdict(inv),
                                    "direct": direct})
    return (f"{samples} random connected graphs, n <= {n_max}",
            {"graphs": samples}, counterexamples)


@_suite("within-family")
def verify_within_family(n_max: int = 20) -> VerificationReport:
    """All dumbbells and thetas with n <= n_max have pairwise distinct
    Laplacian charpolys, by exact comparison of recurrence-route
    polynomials within each vertex count.

    Each member is first keyed by the exact integer value of its recurrence
    formula at x0 = -3 (``_family_value``, from one table of u(j) at x0).
    Members with distinct values have distinct charpolys, so only members
    whose value another member of their n shares get the recurrence
    charpoly and the coefficient comparison: a shared value costs time and
    decides nothing."""
    counterexamples = []
    members_total = 0
    pairs = 0
    u = _u_table(_X0, n_max)
    for n in range(4, n_max + 1):
        members = dumbbell_parameter_grid(n) + theta_parameter_grid(n)
        members_total += len(members)
        pairs += len(members) * (len(members) - 1) // 2
        values = [_family_value(params, _X0, u) for params in members]
        shared = {value for value, count in Counter(values).items() if count > 1}
        by_coeffs: dict[tuple, FamilyParams] = {}
        for params, value in zip(members, values):
            if value not in shared:
                continue
            key = _family_charpoly(params).coeffs
            other = by_coeffs.get(key)
            if other is not None:
                counterexamples.append({
                    "n": n,
                    "first": _params_dict(other),
                    "second": _params_dict(params),
                })
            else:
                by_coeffs[key] = params
    return (f"all family members with 4 <= n <= {n_max}",
            {"members": members_total, "pairs": pairs}, counterexamples)


@_suite("determination")
def verify_determination(n: int, cap: int = DEFAULT_CAP,
                         cache_dir=None) -> VerificationReport:
    """No family member on n vertices has a non-isomorphic cospectral mate
    among all connected graphs with n vertices and n+1 edges.  Member
    charpolys come from the recurrences, pool charpolys from the matrix
    route, so a match also cross-checks the two.  Certifies exactly this n.
    Pool graphs are keyed by their exact value det(-3I - L), so one lookup
    per member decides its pairs with the whole pool: a pool graph with
    another value has another charpoly, and a candidate is a mate only if
    its Berkowitz charpoly equals the member's.  ``comparisons`` counts
    those pairs."""
    members, phis, pool, forms, mate_indices = _members_and_mates(n, cap, cache_dir)
    counterexamples = []
    for g, phi, indices in zip(members, phis, mate_indices):
        mates = [forms[i].decode("ascii") for i in indices]
        params = _params_dict(g.family)
        if len(mates) != 1:
            counterexamples.append({**params, "failure": "match count", "mates": mates})
        elif mates[0] != _g6(g):
            counterexamples.append({**params, "failure": "non-isomorphic mate",
                                    "mate": mates[0], "charpoly": str(phi)})
    return (f"members on n={n} against all connected ({n},{n + 1}) graphs; "
            f"certified for this n only",
            {"members": len(members), "pool": len(pool),
             "comparisons": len(members) * len(pool)},
            counterexamples,
            {"members": [_params_dict(g.family) for g in members]})


@_suite("cospectral-structure")
def verify_cospectral_structure(n: int, cap: int = DEFAULT_CAP,
                                cache_dir=None) -> VerificationReport:
    """Structure forcing at one vertex count: every connected (n, n+1) graph
    with degree profile (3,3,2,...,2) is a dumbbell or theta, and the
    parameters ``classify_bicyclic`` reads off those graphs are the members'
    parameters, each once; the degree constraint solver pins that profile
    from the invariants of each member's recurrence charpoly alone (the
    charpoly its mates are matched against); any pool graph
    cospectral with a member has the profile; every member has a cospectral
    pool graph, since its own copy is in the pool.  A pool graph is cospectral
    with a member when its value det(-3I - L) is among the members' values
    and its Berkowitz charpoly is among the members' recurrence charpolys;
    the value only spares Berkowitz runs on graphs that cannot match."""
    members, phis, pool, forms, mates = _members_and_mates(n, cap, cache_dir)
    profile = (3, 3) + (2,) * (n - 2)
    cospectral = {i for indices in mates for i in indices}
    counterexamples = []
    profiled = 0
    classified = Counter()
    cospectral_hits = 0
    for i, (g, form) in enumerate(zip(pool, forms)):
        has_profile = g.degree_sequence() == profile
        if has_profile:
            profiled += 1
            params = classify_bicyclic(g)
            if params is None:
                counterexamples.append({"graph6": form.decode("ascii"),
                                        "failure": "profile graph not classified"})
            else:
                classified[params] += 1
        if i in cospectral:
            cospectral_hits += 1
            if not has_profile:
                counterexamples.append({"graph6": form.decode("ascii"),
                                        "failure": "cospectral mate without profile"})
    counterexamples += [{**_params_dict(g.family),
                         "failure": "member has no cospectral pool graph"}
                        for g, indices in zip(members, mates) if not indices]
    expected_params = Counter(g.family for g in members)
    counterexamples += [{**_params_dict(params),
                         "failure": "profile graph classified as no member, or twice"}
                        for params in (classified - expected_params).elements()]
    counterexamples += [{**_params_dict(params),
                         "failure": "member parameters not read off a profile graph"}
                        for params in (expected_params - classified).elements()]
    expected = {1: 0, 2: n - 2, 3: 2}
    for g, phi in zip(members, phis):
        try:
            solved = degree_constraint_solver(invariants_from_charpoly(phi))
        except InvalidCharpolyError:  # a recurrence gone wrong, reported below
            solved = None
        if solved != expected:
            counterexamples.append({**_params_dict(g.family),
                                    "failure": "solver did not force profile",
                                    "solved": solved})
    return (f"connected ({n},{n + 1}) graphs and family members on n={n}",
            {"pool": len(pool), "profile_graphs": profiled,
             "members": len(members), "cospectral_hits": cospectral_hits},
            counterexamples)


@_suite("census")
def verify_census(n_max: int = 7, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Edge-addition and vertex-growth enumeration agree, class by class, on
    all graphs with n <= n_max vertices, and the graph6 codec round-trips
    every one of them bit-exactly.  The routes are compared per vertex
    count and, when those agree, per edge count: the edge route's task
    (n, m) against the vertex route's classes with m edges, so a level the
    edge route builds from the wrong one still fails.  The vertex route
    grows each level once, into one memo, and its forms are the keys the
    growth computed.  A census above cap is refused before any growth."""
    if n_max > cap:
        raise EnumerationCapError(cap + 1, cap)
    by_vertices: list[dict[bytes, Graph]] = []
    counterexamples = []
    totals = {}
    round_trips = 0
    for n in range(n_max + 1):
        levels = [enumerate_graphs(EnumerationTask(n, m), cap=cap)
                  for m in range(n * (n - 1) // 2 + 1)]
        # enumerate_graphs returns canonically labeled graphs, so each
        # encoding is a canonical form; a relabeled graph fails the match.
        level_forms = [[graph6_encode(g) for g in level] for level in levels]
        by_edges = [g for level in levels for g in level]
        forms_a = [form for forms in level_forms for form in forms]
        enumerate_by_vertex_growth(n, cap=cap, levels=by_vertices)
        forms_b = list(by_vertices[n])
        totals[n] = len(forms_a)
        if sorted(forms_a) != forms_b:
            counterexamples.append({"n": n, "edge_route": len(forms_a),
                                    "vertex_route": len(forms_b)})
        else:
            by_size: list[list[bytes]] = [[] for _ in levels]
            for form, g in by_vertices[n].items():
                by_size[g.m].append(form)
            for m, (forms, classes) in enumerate(zip(level_forms, by_size)):
                if forms != classes:
                    counterexamples.append({"n": n, "m": m, "edge_route": len(forms),
                                            "vertex_route": len(classes)})
        for g, encoded in zip(by_edges, forms_a):
            round_trips += 1
            back = graph6_decode(encoded)
            if back != g or graph6_encode(back) != encoded:
                counterexamples.append({"n": n, "failure": "round trip",
                                        "graph6": encoded.decode("ascii")})
    return (f"all graphs on n <= {n_max} vertices, both enumeration routes",
            {"classes": sum(totals.values()), "round_trips": round_trips},
            counterexamples,
            {"totals": {str(n): c for n, c in totals.items()}})
