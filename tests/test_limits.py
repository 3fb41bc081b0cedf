import csv
import io
import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lcframe import catalog, limits
from lcframe.classify import CLASSES, classify
from lcframe.curvature import _packet, curvature_packet
from lcframe.errors import LcframeError
from lcframe.expr import EvalDomainError
from lcframe.limits import (
    _SEQUENCES, ABS_ZERO, QUANTITIES, ApproachPath, FieldNonvanishingError,
    QuantityUndefinedError, SampleOutsideDomainError, Verdict, _fits, _ray, _Sample,
    _sample_roots, _schedule, _verdicts, boundedness_report, limit_along, vanishing_order,
)
from lcframe.numerics import LogAxis, loglog_slope
from lcframe.surface import DomainBox, SurfaceDef, basic_invariants_at
from lcframe.taxonomy import Category, Kind, LightlikeBranch

#: one target evaluation plus 10 rays (8 fan, 2 transversal) x 12 samples
MAX_REPORT_CALLS = 1 + 10 * 12


@pytest.mark.parametrize("surface, target", [
    ("mixed_bowl", (1.0, 1.0)),
    # K~ = H~ = 0 everywhere, where a packet would sample the u-line of
    # each point for the 0/0 limit of kappa_til_1
    ("flat_plane", (0.0, 1.0)),
])
def test_report_evaluates_each_sample_once(request, surface, target,
                                           invariant_calls, field_evals):
    boundedness_report(request.getfixturevalue(surface), *target)
    assert invariant_calls[0] <= MAX_REPORT_CALLS
    assert field_evals[0] == 0


#: flat_plane reparametrised by u -> u + log(1 + 200 u) / 1000: still a
#: plane, so K~ = H~ = 0, but no point with u <= -0.005 can be evaluated
LOG_PLANE = {
    "name": "log_plane",
    "X": ["1", "-(u + 0.001*log(1 + 200*u))*sin(v)",
          "-(u + 0.001*log(1 + 200*u))*cos(v)"],
    "v": ["1", "sin(v)", "cos(v)"],
    "w": ["1", "-sin(v)", "-cos(v)"],
    "domain": {"u": ["-1", "1"], "v": ["0", "2*pi"]},
}


def test_limits_compile_one_program_of_the_sample_roots():
    # a report, limit_along and vanishing_order evaluate their targets
    # and samples with one 15-root program, and no 23-root one
    s = SurfaceDef.from_dict(json.loads(catalog.surface_text("sphere")))
    boundedness_report(s, *POLE_PATH.target)
    assert list(s._programs) == [(_sample_roots(), "point")]
    assert len(_sample_roots()) == 15
    limit_along(s, POLE_PATH, "K")
    vanishing_order(s, POLE_PATH, "c2")
    assert list(s._programs) == [(_sample_roots(), "point")]


#: A constant lightcone frame v = (1, 1, 0), w = (1, -1, 0), m = (0, 0, 1)
#: and X_v = (1 / (2 sqrt(v)), 0, 1): the sqrt(v) term enters a2 and b2
#: alone, roots no limits sample reads.  Lightlike on u = 1, with H~ = 1/2.
SQRT_SHEAR = {
    "name": "sqrt_shear",
    "X": ["u*u/2 + sqrt(v)", "u", "v"],
    "v": ["1", "1", "0"],
    "w": ["1", "-1", "0"],
    "domain": {"u": ["0", "2"], "v": ["-1", "1"]},
}


def test_a_fault_in_a_root_no_sample_reads_fails_no_ray():
    # the rays into v < 0, and the target at v = 0, failed while limits
    # evaluated all 23 invariants
    s = SurfaceDef.from_dict(SQRT_SHEAR)
    with pytest.raises(EvalDomainError, match="sqrt of a negative argument"):
        basic_invariants_at(s, 1.0, -0.01)
    outcomes = {oc.label: oc for oc in boundedness_report(s, 1.0, 0.05).outcomes}
    for label in ("fan5", "fan7"):
        assert outcomes[label].error is None
        assert outcomes[label].verdicts["H"].verdict is Verdict.UNBOUNDED
    # fan6 runs along the locus
    assert outcomes["fan6"].error == "sample (1.0, -0.05) hit a lightlike locus"
    with pytest.raises(EvalDomainError, match="division by zero"):
        basic_invariants_at(s, 1.0, 0.0)
    assert boundedness_report(s, 1.0, 0.0).category is Category.LIGHTLIKE


def test_a_report_reads_no_kappa_til_1(jet_pole_plane):
    # the target's packet raises, since the u-jets of its kappa_til_1
    # divide by zero there; a report evaluates the target and its rays'
    # samples by the 15 sample roots alone, so every ray off the locus
    # completes
    with pytest.raises(LcframeError, match="division by zero"):
        curvature_packet(jet_pole_plane, 0.0, 1.0)
    outcomes = {oc.label: oc for oc in boundedness_report(jet_pole_plane, 0.0, 1.0).outcomes}
    for label in ("fan0", "fan1", "fan3", "fan4", "fan5", "fan7",
                  "transversal+", "transversal-"):
        assert outcomes[label].error is None
        assert {q: ver.verdict for q, ver in outcomes[label].verdicts.items()} == {
            "K": Verdict.ZERO_LIMIT, "H": Verdict.ZERO_LIMIT}
    # fan2 and fan6 run along the locus
    assert outcomes["fan2"].error.endswith("hit a singular1 locus")


@pytest.mark.parametrize("surface, target", [
    ("mixed_bowl", (1.0, 1.0)),
    ("sphere", (math.pi / 2, 1.0)),
])
def test_report_matches_limit_along(request, surface, target):
    s = request.getfixturevalue(surface)
    rep = boundedness_report(s, *target)
    completed = [oc for oc in rep.outcomes if oc.error is None and oc.verdicts]
    assert completed
    for oc in completed:
        path = ApproachPath(target=target, direction=oc.direction)
        sides = {classify(s, *p).category.value for p in path.points()}
        assert oc.side == (sides.pop() if len(sides) == 1 else None)
        for q, verdict in oc.verdicts.items():
            assert limit_along(s, path, q) == verdict


def test_negative_ray_count_is_an_error(sphere):
    with pytest.raises(LcframeError, match="ray count must be nonnegative, got -3"):
        boundedness_report(sphere, math.pi / 2, 1.0, directions=-3)


@pytest.mark.parametrize("make", [
    lambda s: ApproachPath(target=(0.0, 0.0), direction=(1.0, 0.0), count=4.5),
    lambda s: boundedness_report(s, math.pi / 2, 1.0, count=12.0),
    lambda s: boundedness_report(s, math.pi / 2, 1.0, directions=2.5),
    lambda s: boundedness_report(s, math.pi / 2, 1.0, directions=True),
], ids=["path-count", "report-count", "report-directions", "report-directions-bool"])
def test_a_count_that_is_not_an_integer_is_an_error(sphere, make, monkeypatch):
    # each raised range()'s TypeError once the path or report was in use;
    # now the report fails before it evaluates anything
    monkeypatch.setattr(limits, "_target", None)
    with pytest.raises(LcframeError, match=r"count must be an integer, got (4\.5|12\.0|2\.5|True)"):
        make(sphere)


#: the sphere pole, approached along -d_u, where c2 = -cos u
POLE_PATH = ApproachPath(target=(math.pi / 2, 1.0), direction=(-1.0, 0.0))


#: the rms residual of each order fit at the pole, in the bits the
#: three-pass fit computed
POLE_RESIDUALS = {"c2": "0x1.828bc979dee2ep-12", "Ktil": "0x1.828bc979a8054p-12",
                  "Htil": "0x1.52a2e2963581ap-9"}


@pytest.mark.parametrize("field", ["c2", "Ktil", "Htil"])
def test_vanishing_order_at_the_sphere_pole(sphere, field):
    # each vanishes like -sin r at distance r from the pole
    est = vanishing_order(sphere, POLE_PATH, field)
    assert est.field == field
    assert est.order == 1.0 and est.is_integer
    assert abs(est.leading_coefficient + 1.0) <= 1e-6
    assert float.hex(est.slope_residual) == POLE_RESIDUALS[field]


def test_vanishing_order_needs_a_vanishing_field(sphere):
    with pytest.raises(FieldNonvanishingError):
        vanishing_order(sphere, POLE_PATH, "lambda_til")


@pytest.mark.parametrize("field, tol", [
    # lambda_til = 1.0 at the pole passed as vanishing, of order 0.0
    ("lambda_til", math.nan), ("lambda_til", math.inf),
    # c2 vanishes at the pole, but read as not vanishing
    ("c2", 0.0), ("c2", -1e-9),
])
def test_vanishing_order_rejects_a_tolerance_that_is_not_positive_and_finite(
        sphere, field, tol):
    with pytest.raises(LcframeError,
                       match="^vanishing tolerance must be positive and finite$"):
        vanishing_order(sphere, POLE_PATH, field, tol=tol)


@pytest.mark.parametrize("field", ["Gamma", "c2"])
def test_vanishing_order_rejects_an_unknown_quantity(sphere, field):
    # an unknown quantity was read as K
    with pytest.raises(LcframeError,
                       match=r"quantity must be one of \('K', 'H', 'c2K'\), got 'bogus'"):
        vanishing_order(sphere, POLE_PATH, field, quantity="bogus")


@pytest.mark.parametrize("args", [
    {"r0": math.nan}, {"r0": math.inf},
    {"direction": (math.nan, 1.0)}, {"direction": (1.0, math.inf)},
    {"direction": (-math.inf, math.inf)},
])
def test_a_non_finite_schedule_is_rejected(args):
    # each was accepted, and every sample was nan
    args = {"direction": (1.0, 0.0), **args}
    with pytest.raises(LcframeError, match="finite"):
        ApproachPath(target=(0.0, 0.0), **args)


#: one target on every locus of the catalog, at the positions the
#: seed-1 locus benchmark draws
LOCUS_TARGETS = [
    ("sphere", 1.5707963267948966, 4.721552866410651),
    ("sphere", -1.5707963267948966, 0.32131037764235426),
    ("sphere", 0.7853981633974483, 1.532689838160796),
    ("sphere", -0.7853981633974483, 4.120440164697419),
    ("mixed_bowl", 1.0, 5.719695331007658),
    ("mixed_bowl", -1.0, 5.398374683414284),
    ("twisted_band", 1.6302133146713707, -0.9407227563859728),
    ("twisted_band", 0.8822929060632738, 0.5093592460309175),
    ("timelike_trough", 0.011493056799271595, 1.5707963267948966),
    ("flared_trough", 0.9900030876994876, 1.5707963267948966),
    ("flared_trough", 0.6277836788097544, 1.5933091292858093),
    ("parabolic_cone", 0.0, 5.174115701026889),
    ("cubic_cone", 0.0, 3.4577016021638904),
    ("flat_plane", 0.0, 0.9342431916558205),
    ("zero_mean_band", -2.7339478419246572, -1.0),
    ("zero_mean_band", 1.9355131503725436, 1.0),
]


@pytest.fixture(scope="module")
def locus_reports():
    surfaces = {name: catalog.load(name) for name in catalog.names()}
    return [(surfaces[name], boundedness_report(surfaces[name], u, v))
            for name, u, v in LOCUS_TARGETS]


def ref_write_samples_csv(report, fh):
    """The samples CSV as csv.writer wrote it row by row: the reference
    for the one-write spelling."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("direction", "quantity", "k", "distance", "value"))
    for oc in report.outcomes:
        if oc.error is not None:
            continue
        for q in sorted(oc.verdicts):
            ver = oc.verdicts[q]
            for k, (r, val) in enumerate(zip(ver.distances, ver.values)):
                writer.writerow((oc.label, q, k, "%.12g" % r, "%.12g" % val))


def _csv_texts(report):
    new, ref = io.StringIO(), io.StringIO()
    report.write_samples_csv(new)
    ref_write_samples_csv(report, ref)
    return new.getvalue(), ref.getvalue()


def test_samples_csv_matches_csv_writer(locus_reports):
    assert {name for name, _, _ in LOCUS_TARGETS} == set(catalog.names())
    rows = 0
    for _, report in locus_reports:
        new, ref = _csv_texts(report)
        assert new == ref
        rows += new.count("\n") - 1
    assert rows > 0


def _replaced(record, **changes):
    """A new record of record's class, with the named fields changed."""
    return type(record)(**{name: changes.get(name, getattr(record, name))
                           for name in record._fields})


def test_samples_csv_quotes_labels_as_csv_writer_does(locus_reports):
    _, report = locus_reports[0]
    report = _replaced(report, outcomes=[
        _replaced(oc, label=f'{oc.label}, "quoted"') for oc in report.outcomes])
    new, ref = _csv_texts(report)
    assert '\n"transversal-, ""quoted""",K,0,0.1,' in new
    assert new == ref


def _bits(x):
    """x in bits, signed zeros apart; None and other values as they are."""
    return float.hex(x) if type(x) is float else x


def test_sample_records_match_packets(locus_reports):
    fields = ("lambda_til", "Ktil", "Htil", "K", "H")
    checked = 0
    for s, report in locus_reports:
        for oc in report.outcomes:
            if oc.error is not None:
                continue
            path = ApproachPath(target=report.target, direction=oc.direction)
            records, _, fault = _ray(s, path)
            assert fault is None
            for (u, v), rec in zip(path.points(), records, strict=True):
                inv = basic_invariants_at(s, u, v)
                p = _packet(s, u, v, inv)
                assert (rec.u, rec.v, _bits(rec.c2)) == (u, v, _bits(inv.c2))
                assert [_bits(getattr(rec, f)) for f in fields] == \
                    [_bits(getattr(p, f)) for f in fields]
                checked += 1
    assert checked > 0


def test_a_vanishing_numerator_gives_limit_zero(zero_mean_band):
    # H~ = EN - 2FM + GL vanishes identically on zero_mean_band, so H = 0
    # off the locus; the samples of H are rounding noise in H~ over a
    # vanishing Gamma, and their slope of about -1.5 read as unbounded
    report = boundedness_report(zero_mean_band, 0.5, 1.0)
    assert report.category.value == "lightlike"
    completed = [oc for oc in report.outcomes if oc.error is None]
    assert len(completed) == 8
    for oc in completed:
        ver = oc.verdicts["H"]
        assert ver.numerator_order == math.inf
        assert any(abs(x) > ABS_ZERO for x in ver.values)
        assert (ver.verdict, ver.slope, ver.note) == (
            Verdict.ZERO_LIMIT, None, "numerator Htil vanishes on the schedule")
    lines = report.to_text().splitlines()
    assert sum(": H: zero l=inf m=" in line for line in lines) == 8
    assert "H bounded (evidence): true" in lines
    assert "H dichotomy: exhibited" in lines


def test_order_fits_keep_the_residual_only_when_asked():
    # a verdict's order fits keep no residual; vanishing_order's keeps it
    axis = LogAxis([0.1 * 0.5 ** k for k in range(12)])
    values = [3.0 * r ** 2 * (1.0 + r) for r in axis.distances]
    records = [_Sample(0.0, 0.0, 1.0, 1.0, x, 0.0, 1.0, 0.0) for x in values]
    (values, vanishing, l_order, _, slope, resid), (order, order_resid) = \
        _fits(axis, ("K",), records, "Ktil")
    assert l_order == order == 2.0 and order_resid > 0.0
    assert (values, vanishing, slope, resid) == ((1.0,) * 12, False, 0.0, 0.0)
    (order, order_resid), = _fits(axis, (), records, "Htil")
    assert (order, order_resid) == (math.inf, 0.0)


def test_the_first_undefined_sample_raises(zero_mean_band):
    # the ray kernel sets K and H to None together, as here
    path = ApproachPath(target=(0.5, 1.0), direction=(0.0, 1.0))
    axis = LogAxis(path.distances())
    records = [_Sample(u, v, 1.0, 1.0, 1.0, 1.0, *((None, None) if k in (3, 7) else (1.0, 1.0)))
               for k, (u, v) in enumerate(path.points())]
    u, v = path.points()[3]
    for quantities in (("K",), ("c2K",), ("H", "K"), ("K", "H", "c2K")):
        with pytest.raises(QuantityUndefinedError) as exc:
            _verdicts(path.ratio, axis, quantities, records)
        assert str(exc.value) == f"{quantities[0]} undefined at sample ({u!r}, {v!r})"


# ---------------------------------------------------------------------------
# The ray kernel against the per-sample loop it replaced (oracles)

PI = math.pi

#: Two targets on every locus of the catalog, from the closed forms of
#: its defining inner product: a1 = 0 (L1), b1 = 0 (L2) or c2 = 0.
LOCUS_FORMS = [
    *(("sphere", PI / 2, t) for t in (0.9, 4.4)),  # the poles, c2 = -cos u
    *(("sphere", -PI / 2, t) for t in (2.2, 5.5)),
    *(("sphere", PI / 4, t) for t in (1.3, 3.8)),
    *(("sphere", -PI / 4, t) for t in (0.5, 4.9)),
    *(("mixed_bowl", 1.0, t) for t in (1.7, 5.2)),
    *(("mixed_bowl", -1.0, t) for t in (0.4, 3.1)),
    *(("twisted_band", t, -1.0 - math.sin(2 * t) / 2) for t in (-2.1, 0.7)),
    *(("twisted_band", t, 1.0 - math.sin(2 * t) / 2) for t in (-0.6, 2.4)),
    *(("timelike_trough", t, PI / 2) for t in (-0.5, 0.3)),
    *(("flared_trough", t, PI / 2) for t in (0.8, 1.25)),
    *(("flared_trough", 1.0 / (t * math.sin(t)), t) for t in (1.15, 1.45)),
    *(("parabolic_cone", 0.0, t) for t in (1.1, 4.0)),
    *(("cubic_cone", 0.0, t) for t in (2.6, 5.9)),
    *(("flat_plane", 0.0, t) for t in (0.3, 3.3)),
    *(("zero_mean_band", t, -1.0) for t in (-1.9, 2.3)),
    *(("zero_mean_band", t, 1.0) for t in (-0.8, 1.6)),
]


@pytest.fixture(scope="module")
def form_targets():
    surfaces = {name: catalog.load(name) for name in catalog.names()}
    return [(surfaces[name], (u, v)) for name, u, v in LOCUS_FORMS]


def test_the_forms_reach_every_kind_of_locus(form_targets):
    assert {name for name, _, _ in LOCUS_FORMS} == set(catalog.names())
    classes = {classify(s, *target) for s, target in form_targets}
    assert {(pc.category, pc.lightlike_branch) for pc in classes} >= {
        (Category.LIGHTLIKE, LightlikeBranch.L1), (Category.LIGHTLIKE, LightlikeBranch.L2)}
    assert {(pc.category, pc.kind) for pc in classes} >= {
        (Category.SINGULAR_1, Kind.FIRST), (Category.SINGULAR_1, Kind.SECOND)}


def _record_bits(rec):
    return tuple(map(_bits, rec))


def _verdict_bits(ver):
    """A LimitVerdict with every float in bits, so that NaN and -0.0 compare."""
    return tuple(tuple(map(_bits, x)) if type(x) is tuple else _bits(x)
                 for x in (getattr(ver, name) for name in ver._fields))


def _outcome(fn, *args):
    """('value', result) of fn(*args), or ('raises', type, message)."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared, whatever it is
        return ("raises", type(exc), str(exc))


def _kernel_ray(s, path):
    """The kernel's records of a ray in bits, with their classes, or how
    it raises: a record's fault raises once the ray has classified."""
    records, classes, fault = _ray(s, path)
    if fault is not None:
        raise fault
    return [_record_bits(rec) for rec in records], [CLASSES[c] for c in classes]


def _oracle_ray(s, path):
    samples = oracles.sample_ray(s, path)
    return ([_record_bits(rec) for rec in oracles.records(samples)],
            [pc for *_, pc in samples])


def test_ray_records_equal_the_oracle(form_targets):
    rays = completed = 0
    for s, target in form_targets:
        for oc in boundedness_report(s, *target).outcomes:
            path = ApproachPath(target=target, direction=oc.direction)
            kernel = _outcome(_kernel_ray, s, path)
            assert kernel == _outcome(_oracle_ray, s, path), (s.name, target, oc.label)
            rays += 1
            completed += kernel[0] == "value"
    assert completed > 100 and rays - completed > 20


def _report_bytes(report):
    csv_text = io.StringIO()
    report.write_samples_csv(csv_text)
    return report.to_text(), csv_text.getvalue()


def test_reports_equal_the_oracle(form_targets):
    for s, target in form_targets:
        report, expected = boundedness_report(s, *target), oracles.boundedness_report(s, *target)
        assert _report_bytes(report) == _report_bytes(expected), (s.name, target)
        assert [(oc.label, oc.side, oc.error, {q: _verdict_bits(ver) for q, ver in oc.verdicts.items()})
                for oc in report.outcomes] == \
            [(oc.label, oc.side, oc.error, {q: _verdict_bits(ver) for q, ver in oc.verdicts.items()})
             for oc in expected.outcomes]


def test_a_curved_path_equals_the_oracle(sphere):
    # the pole approached along a parabola in the parameter plane
    path = ApproachPath(target=(PI / 2, 1.0), curve=lambda r: (PI / 2 - r, 1.0 + r * r))
    assert _outcome(_kernel_ray, sphere, path) == _outcome(_oracle_ray, sphere, path)
    for quantity in ("K", "H"):
        assert _verdict_bits(limit_along(sphere, path, quantity)) == \
            _verdict_bits(oracles.limit_along(sphere, path, quantity))
    est = vanishing_order(sphere, path, "c2")
    assert (est.order, est.is_integer) == (1.0, True)


@pytest.mark.parametrize("args, message", [
    ({"count": 65}, r"^schedule needs a finite r0 > 0 and from 4 to 64 samples$"),
    ({"r0": 1e-322}, r"^schedule distance r0 \* ratio\^11 underflows to 0\.0$"),
], ids=["count-65", "underflowing-r0"])
def test_a_schedule_has_at_most_64_positive_distances(sphere, args, message):
    with pytest.raises(LcframeError, match=message):
        ApproachPath(target=POLE_PATH.target, direction=(-1.0, 0.0), **args)
    with pytest.raises(LcframeError, match=message):
        boundedness_report(sphere, *POLE_PATH.target, **args)


def test_a_schedule_of_64_samples_still_fits(sphere):
    path = ApproachPath(target=POLE_PATH.target, direction=(-1.0, 0.0), ratio=0.9, count=64)
    for quantity in ("K", "H"):
        verdict = limit_along(sphere, path, quantity)
        assert verdict.verdict is Verdict.NONZERO_LIMIT and len(verdict.values) == 64
        assert _verdict_bits(verdict) == _verdict_bits(oracles.limit_along(sphere, path, quantity))
    est = vanishing_order(sphere, path, "c2")
    assert (est.order, est.is_integer) == (1.0, True)
    # at a report's ratio 0.5 the last samples of every ray fall inside
    # the class band of the locus
    report = boundedness_report(sphere, *POLE_PATH.target, count=64)
    assert all(oc.error is not None for oc in report.outcomes)
    assert _report_bytes(report) == \
        _report_bytes(oracles.boundedness_report(sphere, *POLE_PATH.target, count=64))


@pytest.mark.parametrize("surface, target, direction, error, message", [
    ("sphere", (PI / 2, 1.0), (1.0, 0.0), SampleOutsideDomainError,
     "sample (1.6707963267948966, 1.0) outside domain of 'sphere'"),
    ("sphere", (PI / 2, 1.0), (0.0, 1.0), QuantityUndefinedError,
     "sample (1.5707963267948966, 1.1) hit a singular1 locus"),
    ("mixed_bowl", (1.0, 1.0), (0.0, -1.0), QuantityUndefinedError,
     "sample (1.0, 0.9) hit a lightlike locus"),
    (LOG_PLANE, (0.0, 1.0), (-1.0, 0.0), EvalDomainError, "log of a nonpositive argument"),
], ids=["domain", "singular", "lightlike", "program"])
def test_a_failing_sample_raises_as_the_oracle_does(request, surface, target, direction,
                                                   error, message):
    s = SurfaceDef.from_dict(surface) if isinstance(surface, dict) \
        else request.getfixturevalue(surface)
    path = ApproachPath(target=target, direction=direction)
    kernel = _outcome(_kernel_ray, s, path)
    assert kernel == ("raises", error, message)
    assert kernel == _outcome(_oracle_ray, s, path)
    for quantity in ("K", "H"):
        assert _outcome(limit_along, s, path, quantity)[:2] == ("raises", error)


#: A stand-in surface whose program returns the drawn values of the
#: sample roots at each point of one path.
STUB_PATH = ApproachPath(target=(0.0, 0.0), direction=(1.0, 0.0), count=6)


def _stub(values, target=None):
    table = dict(zip(STUB_PATH.points(), values))
    table[STUB_PATH.target] = target
    return SimpleNamespace(
        name="stub", domain=DomainBox(-1.0, 1.0, -1.0, 1.0),
        require_in_domain=lambda u, v: None,
        program=lambda roots, schedule="point": lambda u, v: table[(u, v)])


def _roots(**values):
    return tuple(values.get(name, 0.0) for name in _sample_roots())


#: A timelike sample whose |lam~|^2 overflows in K's denominator, and
#: a singular one (c2 = 0).
OVERFLOWING = _roots(a1=1e80, b1=1e80, c1=2e80, c2=1.0, c2u=1.0)
SINGULAR = _roots(a1=1.0, b1=1.0, c2u=1.0)
REGULAR = _roots(a1=1.0, b1=2.0, c1=1.0, c2=1.0)


def test_a_record_fault_comes_after_every_class_test():
    # the overflow at sample 1 is raised only because no later sample
    # fails its class test; the singular sample 4 is raised before it
    faulting = _stub([REGULAR, OVERFLOWING, REGULAR, REGULAR, REGULAR, REGULAR])
    records, classes, fault = _ray(faulting, STUB_PATH)
    assert isinstance(fault, OverflowError) and len(records) == 1 and len(classes) == 6
    assert _outcome(_kernel_ray, faulting, STUB_PATH) == \
        _outcome(_oracle_ray, faulting, STUB_PATH) == \
        ("raises", OverflowError, "(34, 'Numerical result out of range')")
    singular = _stub([REGULAR, OVERFLOWING, REGULAR, REGULAR, SINGULAR, REGULAR])
    assert _outcome(_kernel_ray, singular, STUB_PATH) == \
        _outcome(_oracle_ray, singular, STUB_PATH) == \
        ("raises", QuantityUndefinedError, "sample (0.00625, 0.0) hit a singular1 locus")


#: Special root values: both zeros, the class tolerance and its
#: neighbours, NaN, the infinities and magnitudes where powers overflow.
SPECIAL_ROOTS = [s * x for x in (0.0, 1e-9, 1e-9 * (1 + 2 ** -52), math.nan, math.inf,
                                 1e300, 1e150, 1e80, 1e-150, 1.0, 0.5) for s in (1.0, -1.0)]
root_values = st.one_of(st.sampled_from(SPECIAL_ROOTS), st.floats(-2.0, 2.0), st.floats())


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(*[root_values] * len(_sample_roots())),
                min_size=STUB_PATH.count, max_size=STUB_PATH.count))
def test_the_kernel_equals_the_oracle_on_any_roots(values):
    s = _stub(values)
    assert _outcome(_kernel_ray, s, STUB_PATH) == _outcome(_oracle_ray, s, STUB_PATH)


def _scaled_sphere(c):
    text = json.loads(catalog.surface_text("sphere"))
    text["X"] = [f"{c!r}*({x})" for x in text["X"]]
    return SurfaceDef.from_dict(text)


@pytest.mark.parametrize("scale, field, value", [
    # |lam~|^2 of the target's Gamma overflowed: OverflowError
    (1e100, "Gamma", "inf"),
    # K~ and H~ are -inf at the target, which passed as vanishing, and
    # their slope was NaN: ValueError from round()
    (1e150, "Ktil", "-inf"),
    (1e150, "Htil", "-inf"),
    # lam~ is inf at the target, which passed as vanishing
    (1e160, "lambda_til", "inf"),
])
def test_a_field_beyond_the_float_range_does_not_vanish(scale, field, value):
    with pytest.raises(FieldNonvanishingError,
                       match=rf"^{field} = {value} does not vanish at \(1\.57"):
        vanishing_order(_scaled_sphere(scale), POLE_PATH, field)


def test_a_sample_field_beyond_the_float_range_fits_no_order():
    # Gamma = c2 |lam~|^2 vanishes at the target, where c2 = 0, and
    # |lam~|^2 overflows at every sample: the first sample's scale raised
    # OverflowError
    s = _stub([_roots(a1=1e100, b1=1e100, c2=1.0)] * STUB_PATH.count,
              target=_roots(a1=1.0, b1=1.0))
    with pytest.raises(LcframeError, match="^cannot fit an order for Gamma along the path$"):
        vanishing_order(s, STUB_PATH, "Gamma")


# ---------------------------------------------------------------------------
# The fit kernel against loglog_slope's loop (oracles), and repeated rays

#: Values whose magnitude is at most ABS_ZERO: both zeros, +-ABS_ZERO
#: and the float below it, the least subnormal and the least normal.
VANISHING = [0.0, -0.0, ABS_ZERO, -ABS_ZERO, math.nextafter(ABS_ZERO, 0.0), 5e-324, -5e-324,
             2.2250738585072014e-308]
SPECIAL_VALUES = VANISHING + [math.nextafter(ABS_ZERO, 1.0), math.nan, math.inf, -math.inf,
                              1.0, -1.0, 1e300, -1e150]


def _power_law(distances, c, p):
    """c r^p at each distance r, inf where it is beyond the float range."""
    out = []
    for r in distances:
        try:
            out.append(c * r ** p)
        except (OverflowError, ZeroDivisionError):
            out.append(math.inf)
    return out


def _sequences(distances):
    n = len(distances)
    return st.one_of(
        st.lists(st.one_of(st.sampled_from(SPECIAL_VALUES),
                           st.floats(min_value=0.0, max_value=1e-300),  # subnormals among them
                           st.floats(-1e3, 1e3), st.floats()),
                 min_size=n, max_size=n),
        st.lists(st.sampled_from(VANISHING), min_size=n, max_size=n),
        st.builds(_power_law, st.just(distances), st.floats(-10.0, 10.0),
                  st.sampled_from([-3.0, -1.5, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])))


def _rays(n):
    """(distances, records, order) of one ray of n samples: every record
    field a drawn sequence, and the order field to fit."""
    # every distance positive, down to subnormals: 1e-300 * 0.5^63
    schedules = st.one_of(
        st.builds(_schedule, st.floats(1e-3, 1.0), st.floats(0.01, 0.99), st.just(n)),
        st.builds(_schedule, st.floats(1e-300, 1e-290), st.floats(0.5, 0.99), st.just(n)))
    return schedules.map(tuple).flatmap(lambda distances: st.tuples(
        st.just(distances),
        st.tuples(*[_sequences(distances)] * 6).map(
            lambda fields: [_Sample(0.0, 0.0, *sample) for sample in zip(*fields)]),
        st.sampled_from([key for key in _SEQUENCES if key not in QUANTITIES])))


def _oracle_fits(distances, recs, order):
    """The kernel's fits by loglog_slope's loop, in _verdict's order."""
    fits, numerators = [], {}
    for q in QUANTITIES:
        num = "Htil" if q == "H" else "Ktil"
        if num not in numerators:
            numerators[num] = oracles.fit_order(
                distances, oracles.field_values(num, q, recs))[0]
        l_order = numerators[num]
        m_order = oracles.fit_order(distances, oracles.field_values("Gamma", q, recs))[0]
        values = tuple(oracles.quantity_values(q, recs))
        mags = [abs(x) for x in values]
        vanishing = all(m <= ABS_ZERO for m in mags)
        slope = resid = None
        if l_order is not math.inf and not vanishing:
            slope, _, resid = loglog_slope(distances, mags)
        fits.append((values, vanishing, l_order, m_order, slope, resid))
    field, _, quantity = order.partition(" ")
    fits.append(oracles.fit_order(distances, oracles.field_values(field, quantity or "K", recs),
                                  residual=True))
    return fits


def _fits_bits(fits):
    return [tuple(tuple(map(_bits, x)) if type(x) is tuple else _bits(x) for x in fit)
            for fit in fits]


@settings(deadline=None, max_examples=150)
@given(st.integers(4, 64).flatmap(_rays))
def test_the_fit_kernel_fits_as_loglog_slope(ray):
    distances, recs, order = ray
    axis = LogAxis(distances)
    got = _outcome(lambda: _fits_bits(_fits(axis, QUANTITIES, recs, order)))
    assert got == _outcome(lambda: _fits_bits(_oracle_fits(distances, recs, order)))
    if got[0] == "value":
        # an identically vanishing sequence has the order math.inf itself
        fits = _fits(axis, QUANTITIES, recs, order)
        assert all(x is math.inf for fit in fits for x in fit if x == math.inf)


#: A target of the seed-1 locus draw whose ray transversal+ is fan0, the
#: unit direction (1.0, 0.0), bit for bit; both rays complete.  Its rays
#: fan4, (-1.0, 1.2e-16), and transversal-, (-1.0, -0.0), are distinct
#: unit directions whose sample points are the same bits.
REPEATED_RAY_TARGET = (1.0, 4.350348079960858)


def test_a_repeated_ray_repeats_the_earlier_outcome(mixed_bowl):
    report = boundedness_report(mixed_bowl, *REPEATED_RAY_TARGET)
    outcomes = {oc.label: oc for oc in report.outcomes}
    first, repeated = outcomes["fan0"], outcomes["transversal+"]
    assert first.error is None and first.verdicts
    assert limits._unit(repeated.direction) == limits._unit(first.direction) == (1.0, 0.0)
    assert _replaced(repeated, label="fan0", direction=first.direction) == first
    path = ApproachPath(target=REPEATED_RAY_TARGET, direction=repeated.direction)
    assert {q: _verdict_bits(limit_along(mixed_bowl, path, q)) for q in repeated.verdicts} == \
        {q: _verdict_bits(ver) for q, ver in repeated.verdicts.items()}


def test_the_ray_kernel_walks_each_distinct_ray_once(mixed_bowl, monkeypatch):
    walked = []
    ray_kernel = limits._ray_kernel

    def counted(roots):
        kernel = ray_kernel(roots)

        def walk(points, *args):
            walked.append(tuple(points))
            return kernel(points, *args)
        return walk

    monkeypatch.setattr(limits, "_ray_kernel", counted)
    report = boundedness_report(mixed_bowl, *REPEATED_RAY_TARGET)
    units = {tuple(map(float.hex, limits._unit(oc.direction))) for oc in report.outcomes}
    assert (len(report.outcomes), len(units)) == (10, 9)
    assert len(walked) == 8
    # each walk is the points of its own unit direction, in the fan's
    # order: transversal+ repeats fan0's direction, transversal- fan4's points
    distances = ApproachPath(REPEATED_RAY_TARGET, (1.0, 0.0)).distances()
    rays = {oc.label: tuple(limits._points(REPEATED_RAY_TARGET, limits._unit(oc.direction),
                                           distances))
            for oc in report.outcomes}
    assert rays["transversal-"] == rays["fan4"]
    assert walked == [ray for label, ray in rays.items()
                      if label not in ("transversal+", "transversal-")]
    outcomes = {oc.label: oc for oc in report.outcomes}
    fan4, repeated = outcomes["fan4"], outcomes["transversal-"]
    assert fan4.error is None and fan4.verdicts
    assert _replaced(repeated, label="fan4", direction=fan4.direction) == fan4
