"""Property-based tests: what the config parser accepts and rejects, the
round trip behind the CLI's override path, the adaptive engine's
monotonicity in m_o, a coherent plan's signed, truncated class stack,
the mirror symmetry of a grid's matrix that its parity classes fold,
the outage screen's lower bound, the static
weights' moments, the bracketed KS statistic, and the array functions'
agreement with their scalar calls."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from frislink.config import PRESET_NAMES, ConfigError, parse_config, preset_config
from frislink.correlation import (
    SurfaceGeometry,
    build_correlation_matrix,
    jakes_coefficient,
)
from frislink.analysis import GammaFit, gamma_cdf, gamma_pdf
from frislink.special import bessel_j0_cylindrical, bessel_j0_spherical
import frislink.montecarlo as mc
from frislink.montecarlo import (
    CoherentMode,
    StaticMode,
    ks_statistic,
    plan_runs,
    run_many,
    run_trials,
)
from oracle import class_blocks, class_factor, plan_factor, screen_first_factor

# Integers are small counts or far beyond any index range. Counts between
# the two are valid and ask for allocations proportional to their size,
# which a test cannot afford.
_INTS = st.integers(-3, 40) | st.integers(2**63, 2**1100) | st.integers(-(2**70), -(2**63))
_NUMBERS = _INTS | st.floats()
_SCALARS = _NUMBERS | st.none() | st.booleans() | st.text(max_size=4)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


_TOP_KEYS = ["geometry", "kernel", "pathloss", "rate_target", "snr_grid_db",
             "modes", "trials", "seed", "output_path", "m_grid"]
_SCHEMA_KEYS = _TOP_KEYS + ["m_x", "m_z", "w_x", "w_z", "carrier_frequency_hz", "rho",
                            "alpha", "d_f", "d_u", "type", "select_x", "select_z",
                            "phases", "m_o", "m_rx", "m_rz"]


def _paths(node, prefix=()):
    """Every key or index path inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_presets(draw):
    """A preset document with one value replaced, one key deleted or one
    unknown key added."""
    doc = preset_config(draw(st.sampled_from(PRESET_NAMES)))
    for key, value in (("trials", 4000), ("seed", 9), ("output_path", "x.csv")):
        doc.setdefault(key, value)
    path = draw(st.sampled_from(list(_paths(doc))))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    value = draw(_NUMBERS | _JSON)
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[last] = value
    elif action == "delete":
        del parent[last]
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(_SCHEMA_KEYS) | st.text(min_size=1, max_size=6))] = value
    else:
        parent.append(value)
    return doc


def _modes(m_x, m_z):
    static = st.fixed_dictionaries(
        {
            "type": st.just("static"),
            "select_x": st.integers(1, m_x),
            "select_z": st.integers(1, m_z),
        }
    )
    return st.lists(
        static
        | st.fixed_dictionaries(
            {"type": st.just("adaptive_fris"), "m_o": st.integers(1, m_x * m_z)}
        )
        | st.fixed_dictionaries(
            {
                "type": st.just("ris_baseline"),
                "m_rx": st.integers(1, 6),
                "m_rz": st.integers(1, 6),
            }
        ),
        min_size=1,
        max_size=3,
    )


_POSITIVE = st.integers(1, 50) | st.floats(1e-3, 1e3)

# the parser's refusal of a link budget whose received SNR per unit gain
# or outage threshold leaves the float range (`config._check_budgets`)
_BUDGET_REJECTION = re.compile(r"snr_grid_db\[\d+\]: at \S+ dB, ")


@st.composite
def valid_documents(draw):
    """Documents the parser accepts: only geometry is required, ints may
    stand for floats, and static modes may carry explicit phases. A draw
    whose budgets the parser refuses is rejected; any other refusal fails."""
    m_x, m_z = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    geometry = {"m_x": m_x, "m_z": m_z, "w_x": draw(_POSITIVE), "w_z": draw(_POSITIVE)}
    if draw(st.booleans()):
        geometry["carrier_frequency_hz"] = draw(st.integers(10**8, 10**11) | st.floats(1e8, 1e11))
    doc = {"geometry": geometry}
    optional = {
        "kernel": st.sampled_from(["spherical", "cylindrical"]),
        "pathloss": st.fixed_dictionaries(
            {}, optional={"rho": _POSITIVE, "alpha": st.integers(-4, 4) | st.floats(-4, 4),
                          "d_f": _POSITIVE, "d_u": _POSITIVE}
        ),
        "rate_target": _POSITIVE,
        "snr_grid_db": st.lists(
            st.integers(-50, 80) | st.floats(-50, 80), min_size=1, max_size=5, unique=True
        ).map(sorted),
        "modes": _modes(m_x, m_z),
        "trials": st.integers(1, 10**7),
        "seed": st.integers(0, 2**128 - 1),
        "output_path": st.none() | st.text(max_size=8),
        "m_grid": st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)).map(list), min_size=1, max_size=3),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(strategy)
    for mode in doc.get("modes", []):
        if mode["type"] == "static" and draw(st.booleans()):
            n = mode["select_x"] * mode["select_z"]
            mode["phases"] = draw(
                st.lists(st.integers(0, 6) | st.floats(0.0, 6.28), min_size=n, max_size=n)
            )
    try:
        parse_config(json.dumps(doc))
    except ConfigError as e:
        if not _BUDGET_REJECTION.match(str(e)):
            raise
        reject()
    return doc


class TestParserRejectsOnlyWithConfigError:
    @_SETTINGS
    @given(doc=mutated_presets())
    def test_mutated_presets(self, doc):
        try:
            parse_config(json.dumps(doc))
        except ConfigError:
            pass

    @_SETTINGS
    @given(doc=st.dictionaries(st.sampled_from(_TOP_KEYS), _JSON))
    def test_arbitrary_documents(self, doc):
        try:
            parse_config(json.dumps(doc))
        except ConfigError:
            pass

    @_SETTINGS
    @given(k_x=st.integers(1, 3), k_z=st.integers(1, 2), data=st.data())
    def test_static_phases(self, k_x, k_z, data):
        # lists of the right length reach the per-entry checks
        phases = data.draw(
            st.lists(_SCALARS | _JSON, min_size=k_x * k_z, max_size=k_x * k_z) | _JSON
        )
        mode = {"type": "static", "select_x": k_x, "select_z": k_z, "phases": phases}
        doc = {"geometry": {"m_x": 3, "m_z": 2, "w_x": 1.0, "w_z": 1.0}, "modes": [mode]}
        try:
            cfg = parse_config(json.dumps(doc))
        except ConfigError:
            return
        accepted = np.asarray(cfg.modes[0].mode.phases)
        assert accepted.shape == (k_x * k_z,)
        assert np.all((accepted >= 0.0) & (accepted < 2.0 * np.pi))


# any finite float, or a moderate positive one so that some documents pass
_EXTREME = st.floats(allow_nan=False, allow_infinity=False) | st.floats(1e-3, 1e3)


class TestAcceptedBudgetsAreFinite:
    @_SETTINGS
    @given(
        geometry=st.fixed_dictionaries(
            {"w_x": _EXTREME, "w_z": _EXTREME}, optional={"carrier_frequency_hz": _EXTREME}
        ),
        kernel=st.sampled_from(["spherical", "cylindrical"]),
        pathloss=st.fixed_dictionaries(
            {}, optional={key: _EXTREME for key in ("rho", "alpha", "d_f", "d_u")}
        ),
        rate=_EXTREME,
        snr=st.lists(_EXTREME, min_size=1, max_size=3, unique=True).map(sorted),
    )
    def test_extreme_floats(self, geometry, kernel, pathloss, rate, snr):
        # a parsed config's budgets and correlation matrix are usable, or
        # the parser rejects it with a ConfigError
        doc = {
            "geometry": {"m_x": 3, "m_z": 2, **geometry},
            "kernel": kernel,
            "pathloss": pathloss,
            "rate_target": rate,
            "snr_grid_db": snr,
        }
        try:
            cfg = parse_config(json.dumps(doc))
        except ConfigError:
            return
        for snr_db in cfg.snr_grid_db:
            budget = cfg.budget(snr_db)
            assert 0.0 < budget.snr_scale < math.inf
            assert math.isfinite(budget.rate_threshold)
            assert math.isfinite(budget.gain_threshold)
        assert np.all(np.isfinite(build_correlation_matrix(cfg.geometry, cfg.kernel)))


class TestCanonicalRoundTrip:
    """Reparsing a config's canonical document reproduces it: the CLI's
    overrides are applied to that document and parsed once."""

    @_SETTINGS
    @given(doc=valid_documents())
    def test_generated_documents(self, doc):
        cfg = parse_config(json.dumps(doc))
        again = parse_config(json.dumps(cfg.canonical))
        assert again.canonical == cfg.canonical
        assert again.config_hash == cfg.config_hash

    def test_overflowing_threshold_is_a_budget_rejection(self):
        # (2^1000 - 1) / snr_scale overflows: `valid_documents` drew this
        # document before it rejected the budgets the parser refuses
        doc = {"geometry": {"m_x": 1, "m_z": 1, "w_x": 1, "w_z": 1}, "pathloss": {"d_f": 984.0},
               "rate_target": 1000.0, "snr_grid_db": [-34]}
        with pytest.raises(ConfigError) as e:
            parse_config(json.dumps(doc))
        assert str(e.value) == (
            "snr_grid_db[0]: at -34.0 dB, pathloss and rate_target give no positive, finite "
            "received SNR per unit gain with a finite outage threshold"
        )
        assert _BUDGET_REJECTION.match(str(e.value))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name):
        cfg = parse_config(json.dumps(preset_config(name)))
        again = parse_config(json.dumps(cfg.canonical))
        assert again.canonical == cfg.canonical
        assert again.config_hash == cfg.config_hash


class TestAdaptiveMonotoneInMo:
    @settings(max_examples=25, deadline=None)
    @given(
        m_x=st.integers(2, 5),
        m_z=st.integers(1, 5),
        pitch=st.floats(0.1, 0.6),
        m_o=st.integers(1, 24),
        seed=st.integers(0, 2**64),
    )
    def test_one_more_element_never_lowers_a_trial(self, m_x, m_z, pitch, m_o, seed):
        # adding the next-best element only adds a nonnegative amplitude
        m_o = min(m_o, m_x * m_z - 1)
        g = SurfaceGeometry(m_x=m_x, m_z=m_z, w_x=pitch * m_x, w_z=pitch * m_z,
                            wavelength=0.125)
        lo = run_trials(g, "spherical", CoherentMode(m_o=m_o), 200, seed)
        hi = run_trials(g, "spherical", CoherentMode(m_o=m_o + 1), 200, seed)
        assert np.all(hi >= lo * (1.0 - 1e-12))


class TestPlanFactor:
    @settings(max_examples=200, deadline=None)
    @given(
        m_x=st.integers(1, 8),
        m_z=st.integers(1, 8),
        pitch=st.floats(-3.0, 0.5).map(lambda e: 10.0**e),  # in wavelengths
        kernel=st.sampled_from(["spherical", "cylindrical"]),
    )
    @example(m_x=4, m_z=4, pitch=0.002, kernel="spherical")
    @example(m_x=20, m_z=20, pitch=0.15, kernel="cylindrical")
    @example(m_x=5, m_z=3, pitch=0.5, kernel="spherical")
    def test_stack_is_the_signed_prefix_of_the_clamped_root(self, m_x, m_z, pitch, kernel):
        # the dense factor F assembled from a plan's class stack, on
        # folding and non-folding grids, and at a pitch (4x4, 0.002) where
        # the class odd along both axes keeps no column: each column's
        # lead entry, its first above 1e-3 of its largest magnitude, is
        # positive; F F^T is the clamped J up to the dropped tail; and r
        # is the shortest prefix of J's eigenvalues, largest first, whose
        # dropped tail is at most 1e-8 of the trace, to 1e-6 of it at the cut
        g = SurfaceGeometry(m_x=m_x, m_z=m_z, w_x=pitch * m_x, w_z=pitch * m_z,
                            wavelength=0.125)
        j = build_correlation_matrix(g, kernel)
        (plan,) = plan_runs(kernel, [(g, CoherentMode(1))])
        f = plan_factor(plan, g, kernel)
        for col in f.T:
            mag = np.abs(col)
            assert col[np.argmax(mag > 1e-3 * mag.max())] > 0.0
        lam = np.linalg.eigvalsh(j)[::-1]
        lam[lam < 1e-12 * lam[0]] = 0.0
        tail = np.append(np.cumsum(lam[::-1])[::-1], 0.0)  # tail[k]: eigenvalues k and up
        r, cut = plan.rank, 1e-8 * tail[0]
        assert tail[r] <= cut * (1.0 + 1e-6) and tail[r - 1] > cut * (1.0 - 1e-6)
        assert np.max(np.abs(f @ f.T - j)) <= tail[r] + 1e-12 * g.m * lam[0]


class TestMirrorSymmetry:
    @settings(max_examples=200, deadline=None)
    @given(
        m_x=st.integers(1, 12),
        m_z=st.integers(1, 12),
        pitch_x=st.floats(-3.0, math.log10(3.0)).map(lambda e: 10.0**e),  # in wavelengths
        pitch_z=st.floats(-3.0, math.log10(3.0)).map(lambda e: 10.0**e),
        kernel=st.sampled_from(["spherical", "cylindrical"]),
    )
    @example(m_x=20, m_z=20, pitch_x=0.15, pitch_z=0.15, kernel="spherical")
    @example(m_x=6, m_z=5, pitch_x=0.3, pitch_z=3.0, kernel="cylindrical")
    def test_every_even_axis_folds(self, m_x, m_z, pitch_x, pitch_z, kernel):
        # a grid's matrix is exactly its own mirror along either axis, so
        # _parity_classes folds every even axis by the grid's shape alone
        # and no other: C = 1, 2 or 4 classes of M / C elements
        g = SurfaceGeometry(m_x=m_x, m_z=m_z, w_x=pitch_x * m_x, w_z=pitch_z * m_z,
                            wavelength=0.125)
        j = build_correlation_matrix(g, kernel)
        j4 = j.reshape(m_z, m_x, m_z, m_x)
        for axes in ((1, 3), (0, 2)):  # x, then z, mirrored in both indices
            assert np.array_equal(np.flip(j4, axes), j4)
        images, blocks = mc._parity_classes(g, kernel)
        c = 2 ** ((m_x % 2 == 0) + (m_z % 2 == 0))
        q = g.m // c
        assert images.shape == (c, q) and blocks.shape == (c, q, q)
        assert np.array_equal(np.sort(images.ravel()), np.arange(g.m))


class TestScreenBound:
    @settings(max_examples=60, deadline=None)
    @given(
        m_x=st.integers(1, 7),
        m_z=st.integers(1, 6),
        pitch=st.floats(0.1, 0.6),
        kernel=st.sampled_from(["spherical", "cylindrical"]),
        m_o=st.integers(1, 42),
        ris=st.none() | st.tuples(st.integers(1, 7), st.integers(1, 6)),
        seed=st.integers(0, 2**64),
    )
    @example(m_x=6, m_z=5, pitch=0.3, kernel="spherical", m_o=4, ris=(3, 3), seed=5)
    @example(m_x=7, m_z=5, pitch=0.2, kernel="cylindrical", m_o=35, ris=None, seed=6)
    @example(m_x=1, m_z=1, pitch=0.5, kernel="spherical", m_o=1, ris=None, seed=7)
    def test_never_exceeds_the_gain(self, m_x, m_z, pitch, kernel, m_o, ris, seed):
        # the screen-first layout rotates each class block without moving
        # the law, F' F'^T = F F^T, and leaves the screen set S's rows of F'
        # zero past the screen columns; the screen sums sqrt P over S, at
        # most m_o elements, which the m_o largest dominate, so on folding
        # and non-folding grids alike each trial's bound stays at or below
        # the gain that layout computes, up to rounding
        g = SurfaceGeometry(m_x=m_x, m_z=m_z, w_x=pitch * m_x, w_z=pitch * m_z,
                            wavelength=0.125)
        if ris is None:
            grid, mode = g, CoherentMode(m_o=min(m_o, g.m))
        else:
            grid, mode = g.regrid(*ris), CoherentMode(m_o=ris[0] * ris[1])
        (plan,) = plan_runs(kernel, [(grid, mode)])
        images, _ = mc._parity_classes(grid, kernel)
        with mc._one_blas_thread():
            classes, rows = mc._screen_layout(plan)
        z, w = mc._workspace({plan: (classes, rows)})
        f = class_factor(class_blocks(classes), images, plan.rank)
        own = class_factor(class_blocks(plan.classes), images, plan.rank)
        gram = own @ own.T
        assert np.max(np.abs(f @ f.T - gram)) <= 1e-12 * np.max(np.abs(gram))
        _, screen = screen_first_factor(plan, images)
        assert rows.shape[1] == screen.size == min(plan.m_o, 16)
        assert np.all(f[screen.ravel(), rows.shape[0] :] == 0.0)
        n = 3 * 128  # three whole blocks
        (gains,) = run_many([plan], n, seed, workers=1, threshold=math.inf)
        bound = np.empty(n)
        with mc._one_blas_thread():
            for j, t0 in enumerate(range(0, n, 128)):
                mc._stream(seed, 0, j + 1).standard_normal(out=z[:16])
                bound[t0 : t0 + 128] = mc._lower_bound(z, rows, [0], w)[:, 0]
        assert np.all(bound > 0.0)
        assert np.all(bound <= gains * (1.0 + 1e-12))


class TestStaticWeights:
    @settings(max_examples=60, deadline=None)
    @given(
        m_x=st.integers(1, 5),
        m_z=st.integers(1, 5),
        pitch=st.floats(0.1, 0.6),
        kernel=st.sampled_from(["spherical", "cylindrical"]),
        data=st.data(),
    )
    def test_moments_match_the_selection_block(self, m_x, m_z, pitch, kernel, data):
        # S = sum_k nu_k E_k has sum nu = tr(A) and sum nu^2 = tr(A^2)
        # for A = D J~ D^H J~, J~ the selection's block of the model matrix
        g = SurfaceGeometry(m_x=m_x, m_z=m_z, w_x=pitch * m_x, w_z=pitch * m_z,
                            wavelength=0.125)
        sel = np.array(data.draw(st.lists(st.integers(0, g.m - 1), min_size=1,
                                          max_size=g.m, unique=True)))
        phases = np.array(data.draw(st.lists(st.floats(0.0, 2.0 * math.pi),
                                             min_size=sel.size, max_size=sel.size)))
        (plan,) = plan_runs(kernel, [(g, StaticMode(sel, phases))])
        j_sub = build_correlation_matrix(g, kernel, sel)
        d = np.exp(1j * phases)
        a = (d[:, None] * j_sub * d.conj()[None, :]) @ j_sub
        nu = plan.weights
        assert nu.sum() == pytest.approx(np.trace(a).real, rel=1e-10)
        assert (nu * nu).sum() == pytest.approx(np.trace(a @ a).real, rel=1e-10)


class TestBracketedKs:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        shape_k=st.floats(0.3, 60.0),
        scale=st.floats(0.5, 40.0),
        law=st.sampled_from(["fit", "other"]),
        ties=st.sampled_from(["none", "rounded", "equal"]),
    )
    def test_equals_evaluation_at_every_sample(self, n, seed, shape_k, scale, law, ties):
        # ks_statistic evaluates the cdf at every 64th sorted sample and
        # in the gaps its bounds cannot rule out; evaluating it at every
        # sample gives the same double, for samples of the fitted law (a
        # small distance, which any sample may attain) and of another,
        # for one sample, for samples with ties and for samples all equal
        rng = np.random.default_rng(seed)
        if law == "fit":
            samples = rng.gamma(shape_k, scale, n)
        else:
            samples = rng.gamma(rng.uniform(0.5, 40.0), rng.uniform(0.5, 40.0), n)
            samples *= rng.exponential(1.0, n)
        if ties == "rounded":
            samples = np.round(samples, -1)
        elif ties == "equal":
            samples = np.full(n, samples[0])
        fit = GammaFit(shape_k, scale)
        s = np.sort(samples)
        f = gamma_cdf(fit, s)
        grid = np.arange(n, dtype=float)
        want = max(np.max((grid + 1.0) / n - f), np.max(f - grid / n))
        assert ks_statistic(samples, fit) == want


# 0, both sides of the cylindrical kernel's split at 17 and of the sinc
# cutoff 1e-4, negatives, and magnitudes up to 1e300
_ARGS = st.lists(
    st.sampled_from([0.0, -0.0, 17.0, math.nextafter(17.0, 18.0), 1e-4,
                     math.nextafter(1e-4, 0.0), 1e300])
    | st.floats(-20.0, 20.0)
    | st.floats(16.9, 17.1)
    | st.floats(-2e-4, 2e-4)
    | st.floats(-1e300, 1e300),
    min_size=1,
    max_size=40,
)


class TestArrayCallsMatchScalarCalls:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        xs=_ARGS,
        wavelength=st.floats(1e-2, 10.0),
        shape_k=st.floats(0.1, 1e3),
        scale=st.floats(1e-3, 1e3),
    )
    def test_bit_for_bit(self, xs, wavelength, shape_k, scale):
        # each element of an array call rounds as its scalar call does,
        # which returns a float
        fit = GammaFit(shape_k, scale)
        distances = [abs(x) for x in xs]
        calls = [
            (bessel_j0_spherical, xs),
            (bessel_j0_cylindrical, xs),
            (lambda d: jakes_coefficient(d, wavelength, "spherical"), distances),
            (lambda d: jakes_coefficient(d, wavelength, "cylindrical"), distances),
            (lambda g: gamma_pdf(fit, g), xs),
        ]
        for f, args in calls:
            scalars = [f(v) for v in args]
            assert all(type(v) is float for v in scalars)
            out = f(np.array(args))
            assert out.shape == (len(args),)
            assert out.tobytes() == np.array(scalars).tobytes()
