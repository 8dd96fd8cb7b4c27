"""Fixed-step traversal of a pipe network.

The robot's reference point advances along the centerline at the mean of
the three resolved track speeds (the differential holds that mean at the
nominal speed, in straights and bends alike).  Roll orientation is a
scenario constant, measured from each bend's inward direction; no roll
dynamics are modeled.

The model is piecewise constant: compressions, tilts and speeds depend only
on the segment, and the differential delivers the demanded speeds as they
are.  ``run`` plans them once, as numpy columns over the whole network, a
straight being a bend of infinite radius.
Each check cuts the columns at its first failing row, so the plan keeps the
segments the robot can enter: in order, up to the first that fails.  It
then steps in blocks of numpy columns that span as many segments as their
records reach: record times are ``k * dt``, and positions and per-track
distances are running sums over the block.  Each block speculates,
verifies, then commits.  It first guesses every record in the current
segment, then steps with the guessed segments' speeds, locates every formed
position and takes those segments as the next guess, until the guess
settles.  It keeps the records up to the first whose segment was guessed
wrong, or through the first that stops the run, and the next block starts
at the first record not kept.  Speeds switch at the first record after a
segment boundary; there is no blending.  The step that enters the first
impassable segment aborts the run, even one that jumps past whole segments.

Runs are deterministic: identical inputs, including the disturbance seed,
produce bit-identical traces.  The kept records do the same floating-point
operations in the same order as stepping one tick at a time (``np.cumsum``
adds in sequence, the 3-term mean is the correctly rounded sum that
``math.fsum`` gives, formed in numpy by ``_sum3``, and a block starts from a
kept position), and record k's disturbance is draws ``3 * k`` to ``3 * k + 2``
of the seed's counter-based stream (``_draws``), however the run is blocked.
Independent runs share nothing and may execute in parallel.

Each block is folded into the summary (``_Fold``) and handed to ``run``'s
``keep`` as it is stepped; the summary's window means and APE are correctly
rounded too.  An undisturbed window holds ``count`` records at its segment's
demands, so its sum is the one product ``count * demand``, and no record
slips.  A disturbed block's ``_window_sums`` gives each window's exact sum
as one Python integer, from fixed-exponent integer limbs or, under its
guard, value by value.  The fold keeps one sum per segment and track, over
the window or, while the window holds no record, over the whole segment; a
window that spans blocks adds its blocks' integers, and the summary rounds
each sum once, as ``math.fsum`` does.
Per-segment rows are gathered to the records once, with ``np.take``.
"""

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import InvalidScenarioError
from .geometry import Bend, PipeNetwork
from .kinematics import TRACK_NAMES, demanded_speeds
from .robot import RobotConfig, first_failure, module_states
from .transmission import GearTrainConfig, first_budget_miss

# Fraction of a segment's arc excluded at each end of the reporting window:
# speeds are averaged over the middle 80 percent, away from transition
# transients at the joints.
WINDOW_MARGIN = 0.1

# Most records one stepping block forms.  A block crosses segment joints, so
# a run takes about one block per this many records, not one per segment,
# and a block's working arrays stay a few hundred kilobytes.
BLOCK_ROWS = 4096

# Most times a block re-guesses its records' segments after the first
# guess.  A guess that has not settled by then is still checked record by
# record, so the cap bounds the work per block, never the result.
GUESS_REFINEMENTS = 3

# Most records a run may form: a 47-bit address space over 144 bytes, the
# size of one record's t, s, segment and five columns of three float64s as
# ``TraceRecord`` spells them out.  The limit is kept at that size though a
# ``Trace`` stores less per record.
MAX_RECORDS = 2**47 // 144

# The unit of ``_window_sums``' exact sums, 2**1126 of which make 1.0: every
# finite float is a whole multiple of 2**-1126.  CPython rounds an integer
# quotient once, so ``total / _UNIT`` is the correctly rounded sum.
_UNIT = 1 << 1126


@dataclass(frozen=True)
class SimParams:
    """Time stepping and input drive for one run."""

    omega_u: float  # rad/s, constant input speed
    dt: float = 0.01  # s
    theta_deg: float = 0.0  # roll orientation, degrees
    t_max: float | None = None  # s, optional stop time
    disturbance_amplitude: float = 0.0  # speeds v * (1 + amplitude * u); 0 disables
    disturbance_seed: int = 0  # >= 0, so that each seed's 64-bit words key its own stream

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.t_max is not None and not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be positive when set, got {self.t_max!r}")
        if not math.isfinite(self.omega_u):
            raise ValueError("omega_u must be finite")
        if not math.isfinite(self.theta_deg):
            raise ValueError("theta_deg must be finite")
        amplitude, seed = self.disturbance_amplitude, self.disturbance_seed
        if not (0.0 <= amplitude < 1.0):
            raise ValueError(f"disturbance amplitude must be in [0, 1), got {amplitude!r}")
        if type(seed) is not int:  # not a bool either
            raise ValueError(f"disturbance seed must be an int, got {seed!r}")
        if seed < 0:
            raise ValueError(f"disturbance seed must be non-negative, got {seed!r}")

    @property
    def theta_rad(self) -> float:
        """The roll in radians, reduced mod 360 deg first, so that a large roll
        does not swamp the modules' 120 deg offsets.  Python's float ``%`` is
        ``fmod``, exact, plus 360 deg when that is negative.  That sum rounds
        to 360 deg itself for a roll in about (-2.8e-14, 0) deg, and is read
        as 0, so a roll and the same roll plus 360 deg reduce alike."""
        reduced = self.theta_deg % 360.0
        return math.radians(0.0 if reduced == 360.0 else reduced)


@dataclass(frozen=True)
class TraceRecord:
    """One time sample of the traversal: one row of a ``Trace``."""

    t: float  # s
    s: float  # mm along the centerline
    segment: int
    theta_deg: float
    v: tuple[float, float, float]  # mm/s, resolved (disturbed when enabled)
    v_theo: tuple[float, float, float]  # mm/s, geometry-required
    compression: tuple[float, float, float]  # mm
    slip: tuple[float, float, float]  # mm/s
    distance: tuple[float, float, float]  # mm, cumulative per track


# The per-record columns of a ``Trace``, in trace CSV order.
TRACE_COLUMNS = ("t", "s", "segment", "v", "v_theo", "compression", "slip", "distance")
# The columns that a ``Trace`` stores per record, ``v_disturbed`` when disturbed.
_MOVING = ("t", "s", "segment", "distance", "v_disturbed")


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Trace:
    """A run's time samples as numpy columns, one row per record.

    Each record stores only what moves: ``t``, ``s`` and ``segment`` of
    shape (n,), ``distance`` of shape (n, 3), one column per track, and, in
    a disturbed run, its speeds ``v_disturbed`` (n, 3); None otherwise.  What
    holds over a segment is stored once per segment, as (m, 3) rows indexed
    by ``segment``: ``speeds``, the demanded speeds that an undisturbed run
    moves at, and ``compressions``.  ``v``, ``v_theo``, ``compression`` and
    ``slip`` (``|v - v_theo|``) are read-only (n, 3) columns gathered from
    them on each access.  Units are those of ``TraceRecord``.  An integer
    index gives one ``TraceRecord``, a slice a shorter ``Trace`` with the
    same rows, and iteration yields the records in time order.
    """

    t: np.ndarray
    s: np.ndarray
    segment: np.ndarray
    theta_deg: float
    distance: np.ndarray
    speeds: np.ndarray
    compressions: np.ndarray
    v_disturbed: np.ndarray | None = None

    @property
    def v(self) -> np.ndarray:
        return self.v_theo if self.v_disturbed is None else _read_only(self.v_disturbed.view())

    @property
    def v_theo(self) -> np.ndarray:
        return _read_only(np.take(self.speeds, self.segment, axis=0))

    @property
    def compression(self) -> np.ndarray:
        return _read_only(np.take(self.compressions, self.segment, axis=0))

    @property
    def slip(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for Python floats
            return _read_only(np.abs(self.v - self.v_theo))

    @property
    def moving(self) -> tuple:
        """The columns after ``segment`` in ``TRACE_COLUMNS`` that change from
        record to record: ``distance``, and ``v`` and ``slip`` when disturbed."""
        return ("distance",) if self.v_disturbed is None else ("v", "slip", "distance")

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return replace(self, **{name: getattr(self, name)[key] for name in _MOVING
                                    if getattr(self, name) is not None})
        j = range(len(self))[key]
        return next(iter(self[j:j + 1]))

    def __iter__(self):
        rows = zip(*(getattr(self, name).tolist() for name in TRACE_COLUMNS))
        for t, s, segment, v, v_theo, compression, slip, distance in rows:
            yield TraceRecord(t, s, segment, self.theta_deg, tuple(v), tuple(v_theo),
                              tuple(compression), tuple(slip), tuple(distance))

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.theta_deg == other.theta_deg and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in TRACE_COLUMNS
        )


@dataclass(frozen=True)
class SegmentColumns:
    """Aggregates over the records that fell inside each segment entered, as
    columns: each field is a tuple with one value per segment, in index
    order, and a per-track field is three such tuples, in ``TRACK_NAMES``
    order.

    A segment that one step crossed whole holds no records: its speeds are
    the plan's speeds, its APE is None, and its entry and exit
    times are both that of the first record past it (or the run's last).
    """

    index: tuple[int, ...]
    kind: tuple[str, ...]  # "straight" or "bend <sweep>deg"
    length: tuple[float, ...]  # mm
    entry_time: tuple[float, ...]  # s
    exit_time: tuple[float, ...]  # s
    mean_speeds: tuple[tuple[float, ...], ...]  # mm/s, midpoint-window average
    min_speeds: tuple[tuple[float, ...], ...]  # mm/s, over the whole segment
    max_speeds: tuple[tuple[float, ...], ...]
    ape: tuple[tuple[float | None, ...], ...]  # percent, window average
    max_compression: tuple[float, ...]  # mm
    max_tilt_deg: tuple[float, ...]
    compression_headroom_mm: tuple[float, ...]  # robot limit minus max_compression
    tilt_headroom_deg: tuple[float, ...]  # robot limit minus max_tilt_deg


@dataclass(frozen=True)
class TrackTotals:
    """Whole-run aggregates for one track."""

    name: str
    distance: float  # mm
    mean_speed: float  # mm/s, distance / total time
    max_slip: float  # mm/s
    max_ape: float | None  # percent, worst segment window


@dataclass(frozen=True)
class RunSummary:
    completed: bool
    stop_reason: str | None  # None, "t_max"
    error: str | None  # abort cause, None on a clean run
    total_time: float  # s, time of the last record
    total_length: float  # mm
    effective_path: float | None  # mm, total minus robot length
    nominal_speed: float  # mm/s
    theta_deg: float
    dt: float
    disturbance_amplitude: float
    disturbance_seed: int
    max_slip: float  # mm/s over all records and tracks
    max_compression: float  # mm over every segment entered and its modules
    segments: SegmentColumns
    tracks: tuple[TrackTotals, TrackTotals, TrackTotals]


@dataclass(frozen=True)
class _Plan:
    """Per-segment columns over the m segments a run can enter."""

    speeds: np.ndarray  # (m, 3) mm/s, demanded, which the differential delivers as they are
    means: np.ndarray  # (m,) mm/s, correctly rounded sum of the speeds over 3
    compressions: np.ndarray  # (m, 3) mm
    max_tilt_deg: np.ndarray  # (m,)
    error: str | None  # why segment m cannot be entered; None when m covers the network


def _plan(net: PipeNetwork, robot: RobotConfig, gear: GearTrainConfig, params: SimParams,
          v_nominal: float) -> _Plan:
    """Plan the segments up to the first that fails ``module_states``, the
    differential's budget, the float-range rule or the record-count rule, in
    that order: each rule cuts the columns at its first failing row before
    the earlier cuts.  Rows past a cut may overflow; they are never kept."""
    theta, dt, amplitude = params.theta_rad, params.dt, params.disturbance_amplitude
    compressions, tilts, no_fit = module_states(robot, net.spec, net.radii, theta)
    m, error = len(compressions), None if no_fit is None else str(no_fit)
    demanded = demanded_speeds(net.radii, theta, v_nominal, net.spec.inner_radius)
    # Bounds on the records the run forms up to the end of each segment and
    # on the sum of the three track speeds so far.  Blocks form up to two
    # records past the end of the planned prefix, so the bound of its last
    # segment covers them, and none past the last that ``t_max`` keeps.
    limit = math.inf if params.t_max is None else params.t_max / dt + 2.0
    speed_range = f"track speeds exceed the float range at nominal speed {v_nominal:g} mm/s"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # The budget plus the demands must stay finite: the budget check adds them.
        cut = first_failure(~np.isfinite(3.0 * gear.ratio * params.omega_u
                                         + _row_sums(demanded[:m])))
        if cut < m:
            m, error = cut, speed_range
        # The budget is in rad/s; the speeds it admits are the demands themselves.
        imposed = demanded / robot.sprocket_radius
        cut, miss = first_budget_miss(gear, params.omega_u, imposed[:m].tolist())
        if miss is not None:
            m, error = cut, str(miss)
        # A disturbed record slips by at most ``amplitude`` times its speeds,
        # and its percent error scales that slip by 100.
        speeds = np.maximum.accumulate(_row_sums(demanded) * (1.0 + amplitude))
        cut = first_failure(~np.isfinite(100.0 * amplitude * speeds[:m]))
        if cut < m:
            m, error = cut, speed_range
        # With the stepper's shortest step in each segment, these bound every
        # record time, position and distance it forms and any speed summed
        # over a segment's records.  ``np.cumsum`` adds in sequence.
        step = _row_sums(demanded) / 3.0 * dt * (1.0 - amplitude)
        count = np.cumsum(np.where(step > 0.0, net.lengths / step + 2.0, math.inf))
        formed = np.minimum(count, limit)[:m]
        cut = first_failure(~(np.isfinite(formed * dt) & np.isfinite(formed * speeds[:m] * dt)
                              & np.isfinite(formed * speeds[:m])))
        if cut < m:
            m, error = cut, (f"steps of {dt:g} s at nominal speed {v_nominal:g} mm/s "
                             "leave the float range")
        cut = first_failure(formed > MAX_RECORDS)
        if cut < m:
            m, error = cut, (f"steps of {dt:g} s at nominal speed {v_nominal:g} mm/s form up "
                             f"to {formed[cut]:.3g} records, more than memory can hold")
    demanded = demanded[:m]
    return _Plan(demanded, _sum3(demanded) / 3.0, compressions[:m], tilts[:m].max(axis=1), error)


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's three entries added left to right, as Python's ``sum`` does."""
    return rows[:, 0] + rows[:, 1] + rows[:, 2]


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` rounded, and its rounding error, which is exact (Knuth's TwoSum)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _sum3(rows: np.ndarray) -> np.ndarray:
    """Each row's three entries summed with one rounding, bit for bit what
    ``math.fsum`` gives, using only float operations (Boldo and Melquiond,
    "Emulation of FMA and Correctly Rounded Sums: Proved Algorithms Using
    Rounding to Odd", IEEE Trans. Computers 57(4), 2008).

    Two TwoSums leave ``hi + lo + low`` equal to the row's sum; ``lo + low``
    is rounded to odd, so that adding it to ``hi`` rounds once.  Every
    intermediate must stay finite.  The plan's speeds and their disturbed
    values are non-negative (a bend's radius exceeds the pipe's and the
    amplitude is below 1), so no intermediate exceeds the row's sum by more
    than rounding, and the plan's record-range rule, which counts at least
    two records, keeps that sum below half the float range."""
    mid, low = _two_sum(rows[:, 1], rows[:, 2])
    hi, lo = _two_sum(rows[:, 0], mid)
    odd, error = _two_sum(lo, low)
    # Round to odd: an inexact sum with an even last bit moves one ulp
    # toward the exact value.  An inexact sum is never subnormal.  Terms of
    # like magnitude, such as a row of track speeds, leave ``lo + low``
    # exact, so the step is skipped unless some row needs it.
    inexact = error != 0.0
    if inexact.any():
        even = inexact & (odd.view(np.int64) & 1 == 0)
        odd[even] = np.nextafter(odd[even], np.copysign(math.inf, error[even]))
    return hi + odd


def _running_sums(first, increments: np.ndarray) -> np.ndarray:
    """``first``, then ``first`` plus each prefix of ``increments`` (along
    axis 0), added one increment at a time as a sequential loop would."""
    sums = np.empty((len(increments) + 1, *increments.shape[1:]))
    sums[0] = first
    sums[1:] = increments
    return sums.cumsum(axis=0)


def _step_block(plan, starts, index, s, distance, rows, dt, amplitude, draws):
    """Speculate ``rows`` records from position ``s``, first guessing each in
    segment ``index``.  Each pass steps at the guessed segments' speeds ``v``,
    disturbed to ``v * (1 + amplitude * u)`` when ``draws`` gives a row of
    ``u ~ U(-1, 1)`` per record, and locates the formed positions; the
    located segments, clamped to the planned prefix, are the next guess, until
    the guess settles or ``GUESS_REFINEMENTS`` runs out.  Returns the last
    guess, where its records located, their mean and track speeds, and
    ``rows + 1`` positions and distances: the records' and the next start."""
    segment = np.full(rows, index)
    factors = None if draws is None else 1.0 + amplitude * draws
    for _ in range(GUESS_REFINEMENTS + 1):
        if draws is None:
            means = plan.means[segment]
        else:
            # ``np.take`` copies the same rows as fancy indexing, several times faster.
            v = np.take(plan.speeds, segment, axis=0)
            v *= factors
            means = _sum3(v) / 3.0
        positions = _running_sums(s, means * dt)
        # No finite start exceeds the network's end: ``run``'s clamp moves no record here.
        located = np.searchsorted(starts, positions[:-1], side="right") - 1
        guess, segment = segment, np.minimum(located, len(plan.speeds) - 1)
        if np.array_equal(segment, guess):
            break
    if draws is None:
        v = np.take(plan.speeds, guess, axis=0)
    return guess, located, means, v, positions, _running_sums(distance, v * dt)


def _mix(z):
    """SplitMix64's finalizer (Steele, Lea and Flood, OOPSLA 2014) of wrapping uint64 words."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= factor
    return z ^ z >> 31


def _draws(seed: int, k: int, rows: int) -> np.ndarray:
    """The (rows, 3) draws ``u`` in [-1, 1) of the seed's stream from draw ``3 * k`` on,
    record k's row first.  Draw n is ``_mix(n * gamma + key)`` (a counter-based stream:
    Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011); its top 52
    bits, the mantissa of a float in [2, 4), less 3 give ``u`` exactly.  The key mixes in
    the seed's 64-bit words, so seeds ``s`` and ``s + 1`` do not give one stream shifted."""
    gamma, key = 0x9E3779B97F4A7C15, np.uint64(0)  # SplitMix64's increment: 2**64 / golden ratio
    with np.errstate(over="ignore"):  # uint64 scalars warn as they wrap
        for shift in range(0, max(seed.bit_length(), 1), 64):
            key = _mix((key ^ seed >> shift & 0xFFFFFFFFFFFFFFFF) + gamma)
    z = _mix(np.arange(3 * k, 3 * (k + rows), dtype=np.uint64) * gamma + key)
    return ((z >> 12 | 0x4000000000000000).view(np.float64) - 3.0).reshape(rows, 3)


def _window_sums(column: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list:
    """The exact sum of ``column[a:b]`` for each window ``a, b`` of ``lo`` and
    ``hi``, as an integer in units of ``2**-1126``, of which every finite
    float is a whole multiple; ``sum / _UNIT`` rounds it once, as
    ``math.fsum`` does.  From the top down, each value is cut exactly into
    three limbs ``q * 2**b``, ``q`` an integer below ``2**width`` and ``b``
    dropping by ``width`` per limb (after Demmel and Hida, "Accurate and
    efficient floating point summation", SIAM J. Sci. Comput. 25(4), 2003).
    Any sum of n such ``q`` is an integer below ``2**53``, so
    ``np.add.reduceat`` forms each window's limb sums exactly."""
    n = len(column)
    width = 53 - (n + 1).bit_length()
    magnitudes = np.abs(column)
    top = float(magnitudes.max(initial=0.0))
    e_hi = math.frexp(top)[1]  # every magnitude is below 2**e_hi
    # At or below every value's last bit.
    e_lo = math.frexp(magnitudes.min(where=magnitudes > 0.0, initial=top))[1] - 53
    limbs = -((e_lo - e_hi) // width)
    # The guard: non-finite values, more than three limbs, or a limb scale 2**b
    # below 2**-1022 (any subnormal).  There each value ``p / 2**k`` is taken
    # whole, as the integer ``p * 2**(1126 - k)``.
    if not (top < math.inf and limbs <= 3 and e_hi - limbs * width >= -1022):
        sums = [0, *accumulate(p << (1127 - q.bit_length())
                               for p, q in map(float.as_integer_ratio, column.tolist()))]
        return [sums[b] - sums[a] for a, b in zip(lo.tolist(), hi.tolist())]
    # Even bounds open the windows; the 0 past the last value lets a bound be n.
    bounds = np.array((lo, hi)).T.ravel()
    limb = np.zeros(n + 1)
    terms = np.zeros((3, len(lo)))
    rest = np.divide(column, math.ldexp(1.0, e_hi - width), out=magnitudes)  # each below 2**width
    for j in range(limbs):
        np.trunc(rest, out=limb[:n])
        terms[j] = np.add.reduceat(limb, bounds)[::2]
        rest -= limb[:n]
        rest *= 2.0 ** width
    terms *= lo < hi  # ``reduceat`` gives an empty window its first value
    # Each limb's 2**b in units of 2**-1126.  The third limb's b is at least
    # -1022 - 2 * 52 = -1126, so no shift is negative, an unused limb's included.
    a, b, c = (e_hi - j * width + 1126 for j in (1, 2, 3))
    return [(int(x) << a) + (int(y) << b) + (int(z) << c) for x, y, z in zip(*terms.tolist())]


class _Fold:
    """A run's summary, folded from its blocks in time order.  Per segment it
    counts the records and those in the window (``a <= s <= b``), and in a
    disturbed run keeps the min and max speeds and, per track, one exact sum
    (``_window_sums``) of the speeds and one of the APE terms, which
    ``summary`` rounds.  A sum covers the window's records or, while the
    window holds none, all of the segment's (the fallback for an empty
    window).  Integers add exactly in any order, so a sum that spans blocks
    is the sum of its blocks' sums."""

    def __init__(self, net: PipeNetwork, robot: RobotConfig, params: SimParams, plan: _Plan):
        self.net, self.robot, self.params, self.plan = net, robot, params, plan
        m = len(plan.speeds)
        starts, spans = net.starts[:m], net.lengths[:m]
        self.edges = starts + WINDOW_MARGIN * spans, starts + (1.0 - WINDOW_MARGIN) * spans
        self.counts, self.windows, self.distances = np.zeros(m, int), np.zeros(m, int), [0.0] * 3
        self.max_slips = np.zeros(3)
        if params.disturbance_amplitude > 0.0:
            # The speeds' sums and the APE terms', each by track and segment.
            self.sums = np.zeros((2, 3, m), dtype=object)
            self.lows, self.highs = np.full((m, 3), math.inf), np.full((m, 3), -math.inf)

    def add(self, block: Trace) -> None:
        """Fold in the records, at least one, after those of the blocks before."""
        segment, lo, hi = block.segment, int(block.segment[0]), int(block.segment[-1]) + 1
        ends = np.searchsorted(segment, np.arange(lo, hi + 1))  # each segment's first record
        first, last = ends[:-1], ends[1:]
        wlo = np.maximum(first, np.minimum(np.searchsorted(block.s, self.edges[0][lo:hi]), last))
        whi = np.maximum(first, np.minimum(np.searchsorted(block.s, self.edges[1][lo:hi],
                                                           side="right"), last))
        seen, inside = self.windows[lo:hi] > 0, whi > wlo
        self.counts[lo:hi] += last - first
        self.windows[lo:hi] += whi - wlo
        self.distances = block.distance[-1].tolist()
        if block.v_disturbed is None:  # undisturbed, the counts are all the summary needs
            return
        # The tracks as rows, each contiguous.  Each gathered column is read once;
        # the demands are gathered writable, to take their magnitudes in place.
        v = np.ascontiguousarray(block.v_disturbed.T)
        demands = np.take(block.speeds.T, segment, axis=1)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in ``Trace.slip``
            slips = np.subtract(v, demands)
        np.abs(slips, out=slips)
        self.max_slips = np.maximum(self.max_slips, slips.max(axis=1))
        np.abs(demands, out=demands)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero demand: fixed up below
            terms = np.divide(np.multiply(slips, 100.0, out=slips), demands, out=slips)
        if not block.speeds.all():  # no APE for a zero demand; finite terms keep the limb sums
            terms[demands == 0.0] = 0.0
        # Only the first and last segments here surely hold records; the others'
        # extremes are a later record's, and the summary takes the plan's.
        lows, highs = self.lows[lo:hi], self.highs[lo:hi]
        np.minimum(lows, np.minimum.reduceat(v, first, axis=1).T, out=lows)
        np.maximum(highs, np.maximum.reduceat(v, first, axis=1).T, out=highs)
        # Each segment's sums cover its window's records or, while the window
        # holds none, all of its records; the window's first records replace
        # the whole segment's sums, and records after the window add nothing.
        held = self.sums[:, :, lo:hi]
        held[:, :, inside & ~seen] = 0
        a = np.where(inside, wlo, first)
        b = np.where(inside, whi, np.where(seen, first, last))
        # One ``_window_sums`` for the speeds and one for the APE terms, each
        # over its tracks end to end.
        bounds = np.array((a, b))[:, None] + len(block) * np.arange(3)[:, None]
        for sums, column in zip(held, (v.ravel(), terms.ravel())):
            sums += np.array(_window_sums(column, *bounds.reshape(2, -1)), object).reshape(3, -1)

    def summary(self, entered: int, v_nominal: float, completed: bool, stop_reason: str | None,
                error: str | None) -> RunSummary:
        """Summarise the run and, as columns, the ``entered`` segments.  An
        undisturbed window's sum ``count * demand`` rounds the exact sum once
        (``count < 2**53`` by ``MAX_RECORDS``)."""
        net, robot, params, plan = self.net, self.robot, self.params, self.plan
        # A segment is entered at its first record and left at the first record
        # of any later segment, or at the run's last record.  Record k is at k * dt.
        bounds = np.concatenate(([0], np.cumsum(self.counts[:entered])))
        times = (np.maximum(np.minimum(bounds, bounds[-1] - 1), 0) * params.dt).tolist()
        # A window that holds no record falls back to the whole segment.
        counts = np.where(self.windows[:entered] == 0, self.counts[:entered],
                          self.windows[:entered])[:, None]
        speeds = plan.speeds[:entered]
        if params.disturbance_amplitude == 0.0:  # every record moves at its segment's demands
            speed_sums, ape_sums = counts * speeds, np.zeros((entered, 3))
            lows = highs = speeds
        else:
            sums = (self.sums[:, :, :entered] / _UNIT).astype(float)
            speed_sums, ape_sums = sums.transpose(0, 2, 1)
            lows = np.where(counts > 0, self.lows[:entered], speeds)
            highs = np.where(counts > 0, self.highs[:entered], speeds)
        ape_counts = np.where(speeds != 0.0, counts, 0)
        # A segment without records has the plan's speeds and no APE.
        means = np.where(counts > 0, speed_sums / np.maximum(counts, 1), speeds)
        apes = np.where(ape_counts > 0, ape_sums / np.maximum(ape_counts, 1), None)
        compressions, tilts = plan.compressions[:entered].max(axis=1), plan.max_tilt_deg[:entered]
        segments = SegmentColumns(
            index=tuple(range(entered)),
            kind=tuple(f"bend {seg.sweep_deg:g}deg" if isinstance(seg, Bend) else "straight"
                       for seg in net.segments[:entered]),
            length=tuple(net.lengths[:entered].tolist()), entry_time=tuple(times[:-1]),
            exit_time=tuple(times[1:]),
            # Per track: each (m, 3) block as three tuples of m values.
            **{name: tuple(map(tuple, rows.T.tolist())) for name, rows in zip(
                ("mean_speeds", "min_speeds", "max_speeds", "ape"), (means, lows, highs, apes))},
            max_compression=tuple(compressions.tolist()), max_tilt_deg=tuple(tilts.tolist()),
            compression_headroom_mm=tuple((robot.max_compression - compressions).tolist()),
            tilt_headroom_deg=tuple((robot.max_tilt_deg - tilts).tolist()),
        )

        total_time, max_slips, tracks = times[-1], self.max_slips.tolist(), []
        for name, distance, max_slip, ape in zip(TRACK_NAMES, self.distances, max_slips,
                                                 segments.ape):
            mean_speed = distance / total_time if total_time > 0.0 else 0.0
            worst_ape = max([value for value in ape if value is not None], default=None)
            tracks.append(TrackTotals(name, distance, mean_speed, max_slip, worst_ape))

        total = net.total_length
        effective = total - robot.length if total >= robot.length else None
        return RunSummary(
            completed=completed, stop_reason=stop_reason, error=error, total_time=total_time,
            total_length=total, effective_path=effective, nominal_speed=v_nominal,
            theta_deg=params.theta_deg, dt=params.dt,
            disturbance_amplitude=params.disturbance_amplitude,
            disturbance_seed=params.disturbance_seed, max_slip=max(max_slips),
            max_compression=max(segments.max_compression, default=0.0),
            segments=segments, tracks=tuple(tracks),
        )


def run(
    net: PipeNetwork,
    robot: RobotConfig,
    gear: GearTrainConfig,
    params: SimParams,
    keep=None,
) -> tuple[Trace, RunSummary]:
    """Simulate until the network end, ``t_max``, or an abort; return the
    ``Trace`` and its ``RunSummary``, which is folded from the records as
    they are stepped.  ``keep``, when given, is handed each block of records
    as a ``Trace`` as it is stepped, an empty one first once the run is planned.

    A no-fit, infeasible-constraint or float-range abort keeps the partial
    trace and records the cause in the summary instead of raising.  It falls
    on the step that enters the first impassable segment, before its record.

    Raises:
        InvalidScenarioError: the network recorded violations when it was
            built, or the nominal track speed is not finite and positive.
    """
    if net.violations:
        raise InvalidScenarioError(
            "network invalid: " + "; ".join(str(v) for v in net.violations)
        )
    v_nominal = gear.ratio * params.omega_u * robot.sprocket_radius
    if not (math.isfinite(v_nominal) and v_nominal > 0.0):
        raise InvalidScenarioError(
            f"nominal track speed must be finite and positive, got {v_nominal:g} mm/s"
        )
    total, dt = net.total_length, params.dt
    t_max = math.inf if params.t_max is None else params.t_max
    t_stop = t_max * (1.0 - 1e-12)  # records within 1e-12 of t_max, relative, stop the run
    amplitude = params.disturbance_amplitude
    plan = _plan(net, robot, gear, params, v_nominal)
    passable = len(plan.speeds)
    starts = np.append(net.starts, math.inf)
    # Blocks form records up to the end of the planned prefix, the span that
    # the plan's float-range rule covers; the sentinel start ends a prefix
    # that holds every segment.
    end = min(total, float(starts[passable]))

    # An undisturbed record's speeds are its segment's, which the trace gathers.
    empty = Trace(np.empty(0), np.empty(0), np.empty(0, dtype=int), params.theta_deg,
                  np.empty((0, 3)), plan.speeds, plan.compressions,
                  None if amplitude == 0.0 else np.empty((0, 3)))
    blocks, fold = [empty], _Fold(net, robot, params, plan)
    if keep is not None:
        keep(empty)
    s, k, distance = 0.0, 0, np.zeros(3)
    completed, stop_reason, error = False, None, None
    while True:
        # Joints belong to the later segment.  The step that enters the first
        # impassable segment aborts the run, even one that jumps past it.
        index = int(np.searchsorted(starts, s, side="right")) - 1
        if index >= passable:
            error = plan.error
            break
        # Enough rows to reach the end of the prefix at the slowest disturbed
        # speed, and none past ``t_max``.  Python floats: ``to_end`` may be inf.
        step = float(plan.means[index]) * dt * (1.0 - amplitude)
        to_end = (end - s) / step if step > 0.0 else 0.0
        rows = int(min(to_end, t_max / dt - k, BLOCK_ROWS - 2)) + 2
        draws = None if amplitude == 0.0 else _draws(params.disturbance_seed, k, rows)
        segment, located, means, v, positions, distances = _step_block(
            plan, starts, index, s, distance, rows, dt, amplitude, draws)
        np.minimum(positions, total, out=positions)  # the run ends at the network's end
        t = np.arange(k, k + rows, dtype=float) * dt
        stops = (positions[:-1] >= total) | (t >= t_stop) | (means <= 0.0)
        # Keep the records up to the first whose segment was guessed wrong,
        # or through the first that stops the run, whichever comes first.
        misses, hits = np.flatnonzero(located != segment), np.flatnonzero(stops)
        n = int(misses[0]) if misses.size else rows
        stopped = hits.size > 0 and hits[0] < n
        if stopped:
            n = int(hits[0]) + 1
        block = replace(empty, t=t[:n], s=positions[:n], segment=segment[:n],
                        distance=distances[:n], v_disturbed=None if draws is None else v[:n])
        fold.add(block)
        blocks.append(block)
        if keep is not None:
            keep(block)
        if stopped:
            index = int(segment[n - 1])
            if positions[n - 1] >= total:
                completed = True
            elif t[n - 1] >= t_stop:
                stop_reason = "t_max"
            else:
                mean = float(means[n - 1])
                error = f"stalled: mean track speed {mean:g} mm/s is not positive"
            break
        # The kept records stepped at their own segments' speeds, so the next
        # block starts from the same position the tick loop would reach.
        s = float(positions[n])
        distance = distances[n].copy()
        k += n

    # The last block's step arrays are dropped before the join, and each
    # column's parts as they are joined, before the summary is made.
    v = means = located = stops = draws = None
    parts = {name: [getattr(block, name) for block in blocks] for name in _MOVING
             if getattr(empty, name) is not None}
    del blocks
    trace = replace(empty, **{name: np.concatenate(parts.pop(name)) for name in list(parts)})
    # Segments up to the last one entered are summarised, never an impassable one.
    return trace, fold.summary(min(index + 1, passable), v_nominal, completed, stop_reason, error)


def run_orientation_sweep(
    net: PipeNetwork,
    robot: RobotConfig,
    gear: GearTrainConfig,
    params: SimParams,
    steps: int,
) -> list[RunSummary]:
    """Run ``steps`` evenly spaced roll orientations over a full turn and
    return one summary per orientation, whose ``theta_deg`` is its roll.

    Summaries come back in orientation order.  Orientation k uses seed
    ``base_seed + k``, whether or not a disturbance is active, so disturbed
    runs stay independent yet reproducible.  Each run's trace is dropped as
    soon as it is summarised, so the sweep holds one trace at a time.
    """
    if steps < 1:
        raise ValueError("at least one orientation required")
    summaries = []
    for k in range(steps):
        oriented = replace(params, theta_deg=k * 360.0 / steps,
                           disturbance_seed=params.disturbance_seed + k)
        summaries.append(run(net, robot, gear, oriented)[1])
    return summaries
