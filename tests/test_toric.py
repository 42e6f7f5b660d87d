"""Configurations, toric kernels, Veronese layers, and the full pipeline."""

import json
import pathlib
from fractions import Fraction

import pytest

from reference import point_rank
from veronese_gb import cli
from veronese_gb.errors import (BudgetExceededError, DimensionError,
                                DomainError, NotAConfigurationError)
from veronese_gb.groebner import Ideal, eliminate, elimination_order
from veronese_gb.polyring import (Polynomial, base_ring, generic_ring,
                                  joint_ring, parse_polynomial, veronese_ring)
from veronese_gb.toric import (Configuration, certify_grading,
                               toric_groebner_basis, toric_ideal,
                               veronese_layer, verify_veronese_toric)
from veronese_gb.veronese import (_joint_graph_gb, kernel_initial,
                                  pullback_homogeneous_ideal)

CURVE = ((1, 0), (1, 1), (1, 2))
CURVE_CONFIG = pathlib.Path(__file__).parent / "data" / "curve_config.json"


def test_certify_grading_examples():
    assert certify_grading(CURVE) == (Fraction(1), Fraction(0))
    with pytest.raises(NotAConfigurationError):
        certify_grading([(1,), (2,)])
    assert certify_grading([(5,)]) == (Fraction(1, 5),)
    with pytest.raises(DomainError):
        certify_grading([])
    # fewer rows than columns, and a column with no pivot
    assert certify_grading([(1, 2, 3)]) == (Fraction(1), Fraction(0), Fraction(0))
    assert certify_grading([(0, 1), (0, 1)]) == (Fraction(0), Fraction(1))


def test_configuration_checks_supplied_grading():
    cfg = Configuration.from_points(CURVE, grading=(1, 0))
    assert cfg.grading == (Fraction(1), Fraction(0))
    with pytest.raises(NotAConfigurationError):
        Configuration.from_points(CURVE, grading=(0, 1))


def test_configuration_rejects_grading_of_wrong_length():
    # zip would truncate: (1,) evaluates to 1 on every point of CURVE
    with pytest.raises(DimensionError):
        Configuration.from_points(CURVE, grading=(1,))
    with pytest.raises(DimensionError):
        Configuration.from_points(CURVE, grading=(1, 0, 0))


def test_toric_ideal_rational_normal_curve():
    cfg = Configuration.from_points(CURVE)
    ideal = toric_ideal(cfg)
    S = base_ring(3)
    assert ideal.generators == (parse_polynomial("y2^2 - y1*y3", S),)


def test_toric_ideal_independent_points_is_zero():
    cfg = Configuration.from_points([(1, 0), (0, 1)])
    assert toric_ideal(cfg).generators == ()


def test_toric_ideal_repeated_point_gives_linear_binomial():
    cfg = Configuration.from_points([(1, 0), (1, 0), (1, 2)])
    ideal = toric_ideal(cfg)
    S = base_ring(3)
    assert parse_polynomial("y1 - y2", S) in set(ideal.generators) or \
        parse_polynomial("y2 - y1", S) in set(ideal.generators)


def test_toric_ideal_negative_coordinates():
    # the curve through a negative coordinate is shifted nonnegative first
    cfg = Configuration.from_points([(1, -1), (1, 0), (1, 1)])
    ideal = toric_ideal(cfg)
    S = base_ring(3)
    assert ideal.generators == (parse_polynomial("y2^2 - y1*y3", S),)


def _inverse_product_kernel(points):
    """The kernel by elimination with an inverse-product variable w, the
    route taken before points were shifted nonnegative: generators
    x_i * z^neg(p_i) - z^pos(p_i), and w * z1*...*zn - 1 when a coordinate
    is negative.  The reference for the shift."""
    ring = base_ring(len(points))
    n = len(points[0])
    negative = any(x < 0 for p in points for x in p)
    names = tuple(f"z{j + 1}" for j in range(n)) + (("w",) if negative else ())
    joint = joint_ring(generic_ring(names), ring)
    pad = (0,) * (len(names) - n)
    no_x = (0,) * ring.nvars
    gens = []
    for i, p in enumerate(points):
        x = tuple(1 if j == i else 0 for j in range(ring.nvars))
        gens.append(Polynomial(joint, {
            tuple(max(-v, 0) for v in p) + pad + x: Fraction(1),
            tuple(max(v, 0) for v in p) + pad + no_x: Fraction(-1)}))
    if negative:
        gens.append(Polynomial(joint, {(1,) * len(names) + no_x: Fraction(1),
                                       joint.zero_exps: Fraction(-1)}))
    return eliminate(gens, elimination_order(len(names), ring.default_order()),
                     ring)


def test_shifted_kernel_matches_inverse_product_route(rng):
    # 3-5 points with coordinates in [-2, 4], graded by a column of +1 or -1
    # at a random place; a column of -1 is shifted by 1, which lands on
    # 1 + lambda.v = 0 whenever the grading is that column's dual vector
    stepped = 0
    for _ in range(40):
        size, dim = rng.randint(3, 5), rng.randint(1, 2)
        col, sign = rng.randint(0, dim), rng.choice((1, -1))
        points = []
        for _ in range(size):
            p = [rng.randint(-2, 4) for _ in range(dim)]
            p.insert(col, sign)
            points.append(tuple(p))
        lam = certify_grading(points)
        shift = [max(0, -min(c)) for c in zip(*points)]
        stepped += 1 + sum(g * v for g, v in zip(lam, shift)) == 0
        assert toric_groebner_basis(points) == _inverse_product_kernel(points)
    assert stepped


@pytest.mark.parametrize("points, expected", [
    # v = 1 would give 1 + lambda.v = 0 for lambda = -1; the shift is 2
    ([(-1,), (-1,)], ("y1 - y2",)),
    ([(-1,)], ()),
    # nonnegative points need no grading
    ([(1,), (2,)], ("y1^2 - y2",)),
])
def test_toric_kernel_shift_edges(points, expected):
    S = base_ring(len(points))
    assert toric_groebner_basis(points) == tuple(
        parse_polynomial(g, S) for g in expected)
    assert toric_groebner_basis(points) == _inverse_product_kernel(points)


def test_negative_non_configuration_is_refused():
    # the shift needs a grading; no vector evaluates to 1 on both points
    with pytest.raises(NotAConfigurationError):
        toric_groebner_basis([(1,), (-1,)])


def test_toric_gb_elements_are_binomials_with_equal_images(rng):
    for _ in range(5):
        ks = sorted(rng.sample(range(0, 7), 3))
        cfg = Configuration.from_points([(1, k) for k in ks])
        gb = toric_ideal(cfg).generators
        for g in gb:
            assert g.is_binomial_pm1()
            images = {cfg.image_exps(e) for e in g.terms}
            assert len(images) == 1
            degs = {sum(e) for e in g.terms}
            assert len(degs) == 1  # homogeneous under the grading


def test_veronese_layer_example():
    cfg = Configuration.from_points(CURVE)
    layer = veronese_layer(cfg, 2)
    assert sorted(layer.configuration.points) == [
        (2, 0), (2, 1), (2, 2), (2, 2), (2, 3), (2, 4)]
    assert len(set(layer.configuration.points)) == 5
    assert layer.configuration.grading == (Fraction(1, 2), Fraction(0))
    assert len(layer.duplicate_pairs) == 1

    assert veronese_layer(cfg, 1).configuration.points == CURVE

    single = Configuration.from_points([(3,)])
    assert veronese_layer(single, 4).configuration.points == ((12,),)


def test_rank_is_preserved_by_layers():
    for pts in (CURVE, ((1, 0), (0, 1)), ((1, 0, 2), (1, 1, 1), (1, 2, 0))):
        cfg = Configuration.from_points(pts)
        r = point_rank(cfg.points)
        for d in (1, 2, 3):
            assert point_rank(veronese_layer(cfg, d).configuration.points) == r
    # dependent and zero rows, and a column with no pivot
    assert point_rank([(1, 2), (2, 4), (0, 0)]) == 1
    assert point_rank([(0, 1), (0, 2), (0, 3)]) == 1


def test_layer_kernel_equals_pullback():
    # direct elimination on the layer's points against the pullback pipeline
    cfg = Configuration.from_points(CURVE)
    ideal = toric_ideal(cfg)
    from veronese_gb.groebner import find_weight_vector
    omega = find_weight_vector(ideal, ideal.ring.default_order())
    d = 2
    res = pullback_homogeneous_ideal(ideal, d, omega)
    layer = veronese_layer(cfg, d)
    direct = toric_groebner_basis(layer.configuration.points,
                                  ring=veronese_ring(cfg.size, d),
                                  order=res.order)
    assert tuple(direct) == tuple(res.reduced)


def test_verify_pipeline_independent_points():
    cfg = Configuration.from_points([(1, 0), (0, 1)])
    cert = verify_veronese_toric(cfg, 2)
    assert cert.ok and cert.all_binomial and cert.pullback.max_degree <= 2
    # a zero kernel has no bound, and meets it
    pb = cert.pullback.certificate
    assert pb["bound"] is None and pb["meets_bound"]


@pytest.mark.parametrize("d", [1, 2, 5])
def test_toric_bound_is_the_pullback_certificates(d, capsys):
    # the kernel y1*y3 - y2^2 has initial ideal (y2^2): bound ceil(3*3/2) = 5;
    # the report's weights, bound and degree are the pullback's
    pb = verify_veronese_toric(Configuration.from_points(CURVE), d).pullback
    assert cli.main(["--json", "toric", str(CURVE_CONFIG),
                     "--veronese", str(d)]) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]["veronese"]
    assert (out["omega"], out["bound"], out["meets_bound"],
            out["max_degree"]) == (list(pb.omega), pb.certificate["bound"],
                                   pb.certificate["meets_bound"],
                                   pb.max_degree)
    assert (out["bound"], out["meets_bound"]) == (5, d >= 5)


def test_verify_pipeline_identity_degree():
    cfg = Configuration.from_points(CURVE)
    cert = verify_veronese_toric(cfg, 1)
    # the computed bound exceeds 1
    assert not cert.pullback.certificate["meets_bound"]
    assert cert.all_binomial and cert.images_equal
    # this kernel happens to be quadratic already
    assert cert.pullback.max_degree == 2


def test_verify_pipeline_curve_small_degree():
    cfg = Configuration.from_points(CURVE)
    cert = verify_veronese_toric(cfg, 2)
    assert cert.all_binomial and cert.images_equal and cert.duplicates_linear
    assert cert.pullback.certificate["initial_matches_monomial_pullback"]


def test_one_default_budget_per_toric_certificate(monkeypatch):
    # the toric kernel takes 9 S-pairs and the pullback 44
    cfg = Configuration.from_points(CURVE + ((1, 3),))
    _joint_graph_gb(4, 2)  # the shape caches run on a budget of their own
    kernel_initial(4, 2)
    monkeypatch.setenv("VERONESE_GB_BUDGET", "52")
    with pytest.raises(BudgetExceededError):
        verify_veronese_toric(cfg, 2)
    monkeypatch.setenv("VERONESE_GB_BUDGET", "53")
    assert verify_veronese_toric(cfg, 2).ok


@pytest.mark.parametrize("kind", ["weighted", "toric"])
def test_below_bound_certificate_lifts_one_basis(kind, monkeypatch):
    # the pullback lifts the basis of the ideal; below the bound too, the
    # certificate reads the pullback of the initial ideal off the
    # standard-monomial table and lifts nothing
    from veronese_gb import veronese
    real_lift = veronese.homogeneous_pullback_generators
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real_lift(*args, **kwargs)

    monkeypatch.setattr(veronese, "homogeneous_pullback_generators", counting)
    if kind == "weighted":
        S3 = base_ring(3)
        conic = Ideal(S3, [parse_polynomial("y1^2 - y2*y3", S3)])
        cert = pullback_homogeneous_ideal(conic, 3).certificate
    else:
        cert = verify_veronese_toric(Configuration.from_points(
            CURVE + ((1, 3),)), 2).pullback.certificate
    assert not cert["meets_bound"]
    assert cert["initial_matches_monomial_pullback"]
    assert len(calls) == 1


def test_below_bound_certificates_eliminate_nothing_for_the_initial_ideal(
        monkeypatch):
    # below the quadratic bound the pullback of the initial ideal is read
    # off the standard-monomial table; the elimination oracle runs only when
    # asked to cross-check the ideal itself
    from veronese_gb import veronese
    real_oracle = veronese.preimage_oracle

    def refuse(*args, **kwargs):
        raise AssertionError("preimage_oracle ran")

    S3 = base_ring(3)
    conic = Ideal(S3, [parse_polynomial("y1^2 - y2*y3", S3)])
    monkeypatch.setattr(veronese, "preimage_oracle", refuse)
    cert = verify_veronese_toric(Configuration.from_points(CURVE + ((1, 3),)),
                                 2)
    assert cert.ok and not cert.pullback.certificate["meets_bound"]
    assert cert.pullback.certificate["initial_matches_monomial_pullback"]
    res = pullback_homogeneous_ideal(conic, 3)
    assert not res.certificate["meets_bound"]
    assert res.certificate["initial_matches_monomial_pullback"]

    calls = []

    def counting(ideal, *args, **kwargs):
        calls.append(ideal)
        return real_oracle(ideal, *args, **kwargs)

    monkeypatch.setattr(veronese, "preimage_oracle", counting)
    both = pullback_homogeneous_ideal(conic, 3, method="both")
    assert calls == [conic]
    assert both.reduced == res.reduced
    assert both.certificate == res.certificate
