#!/usr/bin/env python3
"""bfly_lint: Butterfly's domain-specific determinism and safety linter.

Generic static analyzers cannot know that Butterfly's releases must be
bit-identical across thread counts and across checkpoint/restore, or that
checkpoint frames must flow through CheckpointWriter. This checker enforces
the repo invariants that back those guarantees:

  banned-rng            rand()/srand()/std::random_device/std::default_random_engine
                        and time-seeded engines are forbidden outside
                        src/common/rng.h. Counter-based RNG streams
                        (CounterRng) are the determinism backbone; an ambient
                        or time-seeded source silently breaks bit-identical
                        replay.

  unordered-iteration   Iterating a std::unordered_map / std::unordered_set
                        (range-for or explicit .begin() walk) is flagged:
                        hash-table order is implementation-defined, so any
                        iteration whose order can reach a ReleaseResult,
                        checkpoint bytes, or published/persisted ordering
                        breaks bit-identical resume. Sites must either
                        iterate a sorted materialization or carry an
                        allowlist annotation explaining why order cannot
                        escape.

  writer-bypass         memcpy()/reinterpret_cast writes touching checkpoint
                        state outside the CheckpointWriter/CheckpointReader
                        implementation (src/persist/serializer.*). Byte-level
                        shortcuts bypass the bounds checks and the canonical
                        little-endian encoding the golden-snapshot test pins.

  float-support-accum   Accumulating support counts in float/double.
                        Floating-point accumulation is order-sensitive, so a
                        parallel reduction would stop being bit-identical to
                        the serial one; supports are integers (Support) until
                        noise is deliberately added.

  policy-rng            Release-policy implementations (src/policy/ or any
                        policy_*.cc/.h) must draw randomness exclusively
                        from CounterRng counter streams (src/common/rng.h),
                        keyed on (seed, epoch, identity). The sequential Rng,
                        raw std engines, and std distributions all make the
                        i-th draw depend on draw order, which forks release
                        bytes across thread counts and restore points.

  container-promotion   The hybrid tid-container representation choice
                        (ChooseKind / Reconsider / ConvertTo) must be a pure
                        function of (cardinality, H): RNG draws or
                        unordered-container iteration near a promotion
                        decision would make two replicas of the same stream,
                        or two restores of one snapshot, hold different
                        container tags and report different memory gauges.
                        Flags promotion call sites with RNG usage or
                        hash-order iteration in the surrounding lines.

  ordering-taint        Interprocedural (per translation unit) dataflow from
                        unordered-container iteration order into a release
                        or checkpoint sink. Where unordered-iteration flags
                        the *site* of a hash-order walk, this rule tracks the
                        *value*: a vector materialized from an unordered set,
                        assigned through locals, returned from a helper, and
                        finally handed to WriteRelease or a CheckpointWriter
                        two functions later is still hash-ordered. Sorting
                        (std::sort / std::stable_sort on the value) is the
                        sanitizer; findings anchor at the sink call.

  policy-budget         DP budget accounting (src/policy/*): every noise
                        draw (SampleLaplace / SampleGumbel / UniformOpenZero
                        / an EpochRng or CounterRng stream) must sit either
                        in a recognized composition helper (ReleaseItems,
                        whose caller ReleaseCommon pairs it with
                        EpsilonSpent()/Accumulate(), or the noise primitives
                        themselves) or in a function that does its own
                        epsilon accounting. Likewise any direct ReleaseItems
                        call outside the accounting helpers must account in
                        the same function. Chen & Machanavajjhala's SVT
                        survey showed published DP algorithms shipping with
                        exactly this class of budget-misaccounting bug.

  lock-discipline       Every mutex-typed data member (std::mutex or the
                        annotated Mutex from common/mutex.h) must have at
                        least one BFLY_GUARDED_BY(<that mutex>) member in
                        the same file. A bare std::mutex member is invisible
                        to Clang's -Wthread-safety (use the Mutex wrapper);
                        a Mutex guarding nothing is a lock whose protocol
                        lives only in comments.

  raw-atomic            std::atomic / std::atomic_ref / std::memory_order
                        (and the rest of the std::atomic* family). Clang's
                        -Wthread-safety cannot see a lock-free protocol, so
                        its correctness rests on review alone; use Mutex
                        from common/mutex.h unless a bench row shows the
                        lock costs, and justify each remaining site with an
                        allowance.

  raw-clock             A std::chrono clock (steady_clock, system_clock,
                        high_resolution_clock) outside src/common/timing.h.
                        Time goes through its Stopwatch or StageClock, so
                        every stage a release spends time in lands in the one
                        StageSpans record instead of a private counter no
                        bench sums. bench/e2e/ is exempt: the end-to-end
                        benchmark times the program from outside with its
                        own clock on purpose.

Allowlist annotation (same line or the line above the finding):

    // bfly-lint: allow(<rule>) <justification>

The justification is mandatory; an empty one is itself an error. An
allowance that no longer suppresses anything is reported as stale-allow —
dead suppressions hide future violations at the same line. Run with
--list-allowed to audit every suppression in the tree (stale entries are
marked and make the audit exit nonzero).

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

RULES = (
    "banned-rng",
    "unordered-iteration",
    "writer-bypass",
    "float-support-accum",
    "container-promotion",
    "policy-rng",
    "ordering-taint",
    "policy-budget",
    "lock-discipline",
    "raw-atomic",
    "raw-clock",
)

# Files whose whole purpose exempts them from a rule.
BANNED_RNG_EXEMPT = ("src/common/rng.h",)
WRITER_BYPASS_EXEMPT = ("src/persist/serializer.h", "src/persist/serializer.cc")
# The annotated wrapper wraps the one std::mutex the tree is allowed.
LOCK_DISCIPLINE_EXEMPT = ("src/common/mutex.h",)
# The one clock of the program, and the benchmark that times it from outside.
RAW_CLOCK_EXEMPT = ("src/common/timing.h",)
RAW_CLOCK_EXEMPT_DIRS = ("bench/e2e/",)

ALLOW_RE = re.compile(
    r"//\s*bfly-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)\s*(.*)")

BANNED_RNG_PATTERNS = (
    # (regex, human reason)
    (re.compile(r"(?<![\w.:])rand\s*\(\s*\)"), "rand() is a hidden global RNG"),
    (re.compile(r"(?<![\w.:])srand\s*\("), "srand() seeds a hidden global RNG"),
    (re.compile(r"std::random_device"),
     "std::random_device is nondeterministic by design"),
    (re.compile(r"std::default_random_engine"),
     "std::default_random_engine's algorithm is implementation-defined"),
    (re.compile(r"mt19937(?:_64)?[^\n;]*\b(?:time|clock|now)\s*\("),
     "time-seeded engine breaks bit-identical replay"),
    (re.compile(r"\bseed\s*\([^)]*\b(?:time|clock|now)\s*\("),
     "time-based seed breaks bit-identical replay"),
)

# Release-policy sources: noise must be a pure function of
# (seed, epoch, identity) so a release replays bit-identically from any
# thread count or checkpoint. Only CounterRng provides that; everything
# whose i-th output depends on how many draws preceded it is banned here.
# `\bRng\b` cannot match CounterRng or EpochRng (word boundary), so the
# approved counter streams pass untouched.
POLICY_RNG_PATTERNS = (
    (re.compile(r"\bRng\b"),
     "the sequential Rng's draws depend on call order"),
    (re.compile(r"\bmt19937(?:_64)?\b|\bminstd_rand0?\b|\branlux\w+\b|"
                r"\bknuth_b\b"),
     "stateful std engines consume entropy positionally"),
    (re.compile(r"\b\w+_distribution\b"),
     "std distributions draw a data-dependent number of engine values"),
    (re.compile(r"#\s*include\s*<random>"),
     "policy code has no business pulling in <random>"),
)

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
# `using Alias = std::unordered_map<...>` — track alias names per file so a
# range-for over an alias-typed variable is still recognized.
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*?:\s*\(?\s*\*?([A-Za-z_]\w*)\s*\)?\s*\)")
BEGIN_WALK_RE = re.compile(r"=\s*([A-Za-z_]\w*)\s*[.]\s*(?:c?begin)\s*\(")
# `vector<T> v(set.begin(), set.end())` — materializing an unordered
# container is only deterministic if the copy is sorted right away.
MATERIALIZE_RE = re.compile(
    r"\(\s*([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(\s*\)\s*,\s*\1\s*\.\s*c?end")
# A materialized copy followed by a sort is the canonical ordering fix.
SORT_NEARBY_RE = re.compile(r"\b(?:std::)?(?:sort|stable_sort)\s*\(")

WRITER_BYPASS_RE = re.compile(r"\bmemcpy\s*\(|\breinterpret_cast\s*<")
CHECKPOINT_CONTEXT_RE = re.compile(
    r"Checkpoint|checkpoint|ckpt|CKPT|frame|persist")

# Hybrid tid-container representation decisions. The decision functions are
# pure byte-cost minimizers over (cardinality, H); anything stochastic or
# hash-ordered feeding them would fork container forms across replicas.
PROMOTION_CALL_RE = re.compile(r"\b(?:ChooseKind|Reconsider|ConvertTo)\s*\(")
PROMOTION_TAINT_RE = re.compile(
    r"(?<![\w.:])rand\s*\(|\bs?rand48\b|random_device|"
    r"\b[Rr]ng\b|\bUniformInt\s*\(|\bBernoulli\s*\(|\bPoisson\s*\(|"
    r"\.Sample\s*\(|\bunordered_(?:map|set|multimap|multiset)\b")
# Taint must appear within this many lines of the promotion call to fire.
PROMOTION_WINDOW = 3

FLOAT_ACCUM_DECL_RE = re.compile(
    r"\b(?:float|double)\s+(\w*(?:support|count|supp|cnt)\w*)\s*[={;]",
    re.IGNORECASE)
FLOAT_ACCUM_OP_RE_TMPL = r"\b{name}\s*(?:\+=|\+\+|--|-=)"

# --- ordering-taint -------------------------------------------------------
# Function-definition heuristics for the per-TU tokenizer: a `{` that opens
# a block whose accumulated header text ends in `name(params)` (plus
# qualifiers), where `name` is not a statement keyword.
FUNC_CANDIDATE_RE = re.compile(r"\b([A-Za-z_~]\w*)\s*\(")
NON_FUNC_NAMES = frozenset({
    "if", "for", "while", "switch", "catch", "do", "return", "sizeof",
    "alignof", "decltype", "static_assert", "new", "delete", "throw",
    "defined", "assert", "co_await", "co_return", "co_yield",
})
# Source: building a value from an unordered container's iteration range —
# `vector<T> v(u.begin(), u.end())` or `x = {u.begin(), u.end()}` etc.
TAINT_SOURCE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")
# Sanitizer: an in-place sort of the tainted value fixes its order.
TAINT_SANITIZE_RE = re.compile(
    r"\b(?:std::)?(?:stable_)?sort\s*\(\s*([A-Za-z_]\w*)\s*\.")
# Sinks: the release serializer, and any method call on a CheckpointWriter.
SINK_CALL_RE = re.compile(r"\bWriteRelease\s*\(")
WRITER_TYPE_RE = re.compile(r"\bCheckpointWriter\s*[*&]?\s*(\w+)\s*[,);=]")
ASSIGN_RE = re.compile(r"(?:^|[;{(\s])(?:[\w:<>,&*\[\]\s]+?\s)?"
                       r"([A-Za-z_]\w*)\s*=\s*([^;=][^;]*)")
DECL_CTOR_RE = re.compile(r"\b([A-Za-z_]\w*)\s*[({]\s*"
                          r"([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")
# Greedy prefix + (?!:) so the loop variable is the identifier before the
# *range* colon, not the first token before a `::` qualifier.
RANGE_FOR_VAR_RE = re.compile(r"\bfor\s*\(.*[&\s]([A-Za-z_]\w*)\s*:(?!:)")
RETURN_RE = re.compile(r"\breturn\b([^;]*)")
TAINT_PASSES = 4  # fixed-point iterations over the call graph

# --- policy-budget --------------------------------------------------------
# A noise/randomness draw inside a release policy.
POLICY_DRAW_RE = re.compile(
    r"\bSampleLaplace\s*\(|\bSampleGumbel\s*\(|\bUniformOpenZero\s*\(|"
    r"\bEpochRng\s*\(|\bCounterRng\b|\bUniformReal\s*\(|\bUniformInt\s*\(")
# Epsilon accounting in the same function.
POLICY_ACCOUNT_RE = re.compile(
    r"\bEpsilonSpent\s*\(|\bAccumulate\s*\(|\bepsilon_spent\b|"
    r"\bcumulative_epsilon_?\b")
# The sanctioned composition helpers: ReleaseItems implementations draw the
# noise, and their one caller — DpPolicyBase::ReleaseCommon — pairs the call
# with EpsilonSpent()/Accumulate(); the dp_noise.h primitives and the
# EpochRng stream factory are the draws themselves.
POLICY_BUDGET_HELPERS = frozenset({
    "ReleaseItems", "ReleaseCommon", "SampleLaplace", "SampleGumbel",
    "UniformOpenZero", "EpochRng",
})
RELEASE_ITEMS_CALL_RE = re.compile(r"\bReleaseItems\s*\(")

# --- lock-discipline ------------------------------------------------------
# A mutex-typed data member (std::mutex or the annotated wrapper).
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:static\s+)?(?:mutable\s+)?(?:std::)?[Mm]utex\s+(\w+)\s*;")
GUARDED_BY_RE_TMPL = r"BFLY_GUARDED_BY\s*\(\s*{name}\s*\)"

# --- raw-atomic -----------------------------------------------------------
RAW_ATOMIC_RE = re.compile(r"\bstd::(?:atomic\w*|memory_order\w*)")

# --- raw-clock ------------------------------------------------------------
RAW_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\b")


@dataclass
class Finding:
    path: Path
    line: int
    rule: str
    message: str

    def render(self, root: Path) -> str:
        try:
            rel = self.path.relative_to(root)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Allowance:
    path: Path
    line: int
    rules: tuple[str, ...]
    justification: str
    target: int = 0  # the line this allowance suppresses


@dataclass
class FileScan:
    findings: list[Finding] = field(default_factory=list)
    allowances: list[Allowance] = field(default_factory=list)
    used_allowances: set[int] = field(default_factory=set)


def strip_strings_and_line_comment(line: str) -> str:
    """Removes string/char literals and a trailing // comment (but keeps the
    bfly-lint annotation visible to the allowance parser, which runs on the
    raw line)."""
    out = []
    i, n = 0, len(line)
    quote = None
    while i < n:
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
            i += 1
            continue
        if c in ("\"", "'"):
            quote = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def parse_allowances(path: Path, lines: list[str]) -> dict[int, Allowance]:
    """Maps *effective* line numbers to their allowance. An inline annotation
    covers its own line; an annotation on its own line covers the next
    non-comment line (so a justification may wrap over several // lines)."""
    allowances: dict[int, Allowance] = {}
    for idx, raw in enumerate(lines, start=1):
        m = ALLOW_RE.search(raw)
        if not m:
            continue
        rules = tuple(r.strip() for r in m.group(1).split(","))
        justification = m.group(2).strip()
        allowance = Allowance(path, idx, rules, justification)
        code_before = raw[: m.start()].strip()
        if code_before:
            allowance.target = idx
            allowances[idx] = allowance
            continue
        target = idx + 1
        while target <= len(lines) and lines[target - 1].strip().startswith("//"):
            target += 1
        allowance.target = target
        allowances[target] = allowance
    return allowances


def suppressed(scan: FileScan, allowances: dict[int, Allowance],
               line: int, rule: str) -> bool:
    a = allowances.get(line)
    if a is None or rule not in a.rules:
        return False
    scan.used_allowances.add(a.line)
    return True


def check_banned_rng(path: Path, rel: str, lines: list[str],
                     allowances: dict[int, Allowance], scan: FileScan) -> None:
    if rel in BANNED_RNG_EXEMPT:
        return
    for idx, raw in enumerate(lines, start=1):
        code = strip_strings_and_line_comment(raw)
        for pattern, reason in BANNED_RNG_PATTERNS:
            if pattern.search(code):
                if suppressed(scan, allowances, idx, "banned-rng"):
                    continue
                scan.findings.append(Finding(
                    path, idx, "banned-rng",
                    f"{reason}; use Rng/CounterRng from src/common/rng.h"))


def is_policy_source(rel: str) -> bool:
    """A release-policy implementation: anything under a policy/ directory
    or named policy_*.{h,cc} (fixtures included)."""
    return "/policy/" in rel or Path(rel).name.startswith("policy_")


def check_policy_rng(path: Path, rel: str, lines: list[str],
                     allowances: dict[int, Allowance],
                     scan: FileScan) -> None:
    if not is_policy_source(rel):
        return
    for idx, raw in enumerate(lines, start=1):
        code = strip_strings_and_line_comment(raw)
        for pattern, reason in POLICY_RNG_PATTERNS:
            if pattern.search(code):
                if suppressed(scan, allowances, idx, "policy-rng"):
                    continue
                scan.findings.append(Finding(
                    path, idx, "policy-rng",
                    f"{reason}; release policies must key every draw off a "
                    "CounterRng counter stream (common/rng.h) so noise is a "
                    "pure function of (seed, epoch, identity)"))


def collect_unordered_names(lines: list[str],
                            header_lines: list[str] | None) -> set[str]:
    """Identifiers declared (in this file or its paired header) with an
    unordered container type, including alias-typed declarations."""
    names: set[str] = set()
    aliases: set[str] = set()
    all_lines = lines + (header_lines or [])
    for raw in all_lines:
        code = strip_strings_and_line_comment(raw)
        for m in UNORDERED_ALIAS_RE.finditer(code):
            aliases.add(m.group(1))
    decl_re = re.compile(
        r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*[&*]?\s*"
        r"([A-Za-z_]\w*)\s*[;,)=({]")
    for raw in all_lines:
        code = strip_strings_and_line_comment(raw)
        for m in decl_re.finditer(code):
            names.add(m.group(1))
        for alias in aliases:
            for m in re.finditer(
                    r"\b" + re.escape(alias) +
                    r"\b\s*[&*]?\s*([A-Za-z_]\w*)\s*[;,)=(]", code):
                names.add(m.group(1))
    # Template parameters and return types produce false captures like
    # `ItemsetHash`; declarations of interest are variables, and a hash
    # functor name sneaking in is harmless (it is never iterated).
    return names


def check_unordered_iteration(path: Path, rel: str, lines: list[str],
                              header_lines: list[str] | None,
                              allowances: dict[int, Allowance],
                              scan: FileScan) -> None:
    names = collect_unordered_names(lines, header_lines)
    if not names:
        return
    for idx, raw in enumerate(lines, start=1):
        code = strip_strings_and_line_comment(raw)
        hit = None
        m = RANGE_FOR_RE.search(code)
        if m and m.group(1) in names:
            hit = m.group(1)
        else:
            m = BEGIN_WALK_RE.search(code)
            if m and m.group(1) in names:
                hit = m.group(1)
        if hit is not None:
            if suppressed(scan, allowances, idx, "unordered-iteration"):
                continue
            scan.findings.append(Finding(
                path, idx, "unordered-iteration",
                f"iteration over unordered container '{hit}': hash order is "
                "implementation-defined and must not reach released or "
                "persisted state; iterate a sorted copy or annotate with "
                "// bfly-lint: allow(unordered-iteration) <why order cannot "
                "escape>"))
            continue
        m = MATERIALIZE_RE.search(code)
        if m and m.group(1) in names:
            # Sorted within the next few lines => the canonical fix pattern
            # (a short comment block may sit between copy and sort).
            lookahead = " ".join(
                strip_strings_and_line_comment(l)
                for l in lines[idx - 1:idx + 6])
            if SORT_NEARBY_RE.search(lookahead):
                continue
            if suppressed(scan, allowances, idx, "unordered-iteration"):
                continue
            scan.findings.append(Finding(
                path, idx, "unordered-iteration",
                f"materializing unordered container '{m.group(1)}' without "
                "an immediate sort: the copy inherits hash order; sort it "
                "or annotate with // bfly-lint: allow(unordered-iteration) "
                "<why order cannot escape>"))


def check_writer_bypass(path: Path, rel: str, lines: list[str],
                        allowances: dict[int, Allowance],
                        scan: FileScan) -> None:
    if rel in WRITER_BYPASS_EXEMPT:
        return
    in_persist = rel.startswith("src/persist/")
    for idx, raw in enumerate(lines, start=1):
        code = strip_strings_and_line_comment(raw)
        if not WRITER_BYPASS_RE.search(code):
            continue
        # Outside src/persist the pattern only fires when the line touches
        # checkpoint state; inside src/persist every byte-level shortcut is
        # suspect.
        if not in_persist and not CHECKPOINT_CONTEXT_RE.search(code):
            continue
        if suppressed(scan, allowances, idx, "writer-bypass"):
            continue
        scan.findings.append(Finding(
            path, idx, "writer-bypass",
            "raw memcpy/reinterpret_cast on checkpoint state bypasses "
            "CheckpointWriter's bounds checks and canonical encoding"))


def check_float_support_accum(path: Path, rel: str, lines: list[str],
                              allowances: dict[int, Allowance],
                              scan: FileScan) -> None:
    declared: dict[str, int] = {}
    for idx, raw in enumerate(lines, start=1):
        code = strip_strings_and_line_comment(raw)
        for m in FLOAT_ACCUM_DECL_RE.finditer(code):
            declared.setdefault(m.group(1), idx)
    if not declared:
        return
    for idx, raw in enumerate(lines, start=1):
        code = strip_strings_and_line_comment(raw)
        for name, decl_line in declared.items():
            if re.search(FLOAT_ACCUM_OP_RE_TMPL.format(name=re.escape(name)),
                         code):
                if suppressed(scan, allowances, idx, "float-support-accum"):
                    continue
                scan.findings.append(Finding(
                    path, idx, "float-support-accum",
                    f"accumulating '{name}' (declared float/double at line "
                    f"{decl_line}) — float accumulation is order-sensitive; "
                    "keep support counts in the integer Support type until "
                    "noise is deliberately applied"))


def check_container_promotion(path: Path, rel: str, lines: list[str],
                              allowances: dict[int, Allowance],
                              scan: FileScan) -> None:
    del rel  # promotion calls are suspect wherever they appear
    stripped = [strip_strings_and_line_comment(l) for l in lines]
    for idx, code in enumerate(stripped, start=1):
        if not PROMOTION_CALL_RE.search(code):
            continue
        lo = max(0, idx - 1 - PROMOTION_WINDOW)
        hi = min(len(stripped), idx + PROMOTION_WINDOW)
        taint = None
        for other in range(lo, hi):
            m = PROMOTION_TAINT_RE.search(stripped[other])
            if m:
                taint = (other + 1, m.group(0).strip())
                break
        if taint is None:
            continue
        if suppressed(scan, allowances, idx, "container-promotion"):
            continue
        scan.findings.append(Finding(
            path, idx, "container-promotion",
            f"container promotion decision with '{taint[1]}' nearby (line "
            f"{taint[0]}): representation choice must be a pure function of "
            "(cardinality, H) — RNG or hash order here forks container "
            "forms across replicas and restores"))


@dataclass
class Func:
    """One function definition: name, parameter names, body lines."""
    name: str
    params: list[str]
    body: list[tuple[int, str]]  # (line number, stripped code)


def _extract_params(header: str, open_paren: int) -> list[str]:
    """Parameter names of the signature whose '(' sits at `open_paren`."""
    depth = 0
    end = None
    for i in range(open_paren, len(header)):
        c = header[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                end = i
                break
    if end is None:
        return []
    inner = header[open_paren + 1:end]
    params: list[str] = []
    part_depth = 0
    part = ""
    parts: list[str] = []
    for c in inner:
        if c in "(<[":
            part_depth += 1
        elif c in ")>]":
            part_depth -= 1
        if c == "," and part_depth == 0:
            parts.append(part)
            part = ""
        else:
            part += c
    if part.strip():
        parts.append(part)
    for p in parts:
        p = p.split("=")[0]  # strip default arguments
        idents = re.findall(r"[A-Za-z_]\w*", p)
        if idents and idents[-1] not in ("void", "const", "int", "size_t",
                                         "double", "bool", "auto"):
            params.append(idents[-1])
        else:
            params.append("")  # unnamed parameter keeps positions aligned
    return params


def split_functions(lines: list[str]) -> list[Func]:
    """Splits a TU into function definitions by brace matching.

    Line-based heuristic tuned for clang-format output: a `{` opening a
    block whose accumulated header text ends with `name(...)` (plus
    qualifiers / a constructor init list), where `name` is not a statement
    keyword, starts a function; the body runs until the depth returns.
    Nested blocks (and lambdas) stay inside the enclosing function's body —
    the taint pass is line-oriented, so that is exactly what it wants.
    """
    stripped = [strip_strings_and_line_comment(l) for l in lines]
    funcs: list[Func] = []
    depth = 0
    header = ""
    current: Func | None = None
    func_depth = 0
    for lineno, code in enumerate(stripped, start=1):
        i = 0
        while i < len(code):
            c = code[i]
            if current is not None:
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    if depth == func_depth:
                        funcs.append(current)
                        current = None
                        header = ""
                i += 1
                continue
            if c == "{":
                sig = header.strip()
                started = False
                if sig and not sig.endswith("=") and "=" not in sig.split(
                        "(")[0]:
                    m = FUNC_CANDIDATE_RE.search(sig)
                    if m and m.group(1) not in NON_FUNC_NAMES and not re.match(
                            r"^(?:typedef|using|struct|class|enum|union|"
                            r"namespace|extern)\b", sig):
                        name = m.group(1).split("::")[-1]
                        current = Func(name, _extract_params(sig, m.end() - 1),
                                       [])
                        func_depth = depth
                        started = True
                depth += 1
                header = ""
                if not started:
                    pass
            elif c == "}":
                depth -= 1
                header = ""
            elif c == ";":
                header = ""
            else:
                header += c
            i += 1
        if current is not None:
            current.body.append((lineno, code))
        else:
            header += " "
    return funcs


def _source_allowed(scan: FileScan, allowances: dict[int, Allowance],
                    line: int) -> bool:
    """True when a taint source line carries an allowance saying hash order
    cannot escape — under either the site rule or the taint rule."""
    return (suppressed(scan, allowances, line, "unordered-iteration") or
            suppressed(scan, allowances, line, "ordering-taint"))


def check_ordering_taint(path: Path, rel: str, lines: list[str],
                         header_lines: list[str] | None,
                         allowances: dict[int, Allowance],
                         scan: FileScan) -> None:
    unordered = collect_unordered_names(lines, header_lines)
    funcs = split_functions(lines)
    if not funcs:
        return
    writer_names: set[str] = set()
    for raw in lines + (header_lines or []):
        for m in WRITER_TYPE_RE.finditer(strip_strings_and_line_comment(raw)):
            writer_names.add(m.group(1))
    writer_sink_re = None
    if writer_names:
        writer_sink_re = re.compile(
            r"\b(" + "|".join(re.escape(w) for w in writer_names) +
            r")\s*(?:->|\.)\s*\w+\s*\(")

    # Lines the same-site rule already reported: the taint pass does not
    # cascade from them (one finding per root cause — fixing the site fixes
    # the flow), and lines whose allowance vouches "order cannot escape"
    # are trusted not to seed taint either.
    flagged = {f.line for f in scan.findings
               if f.rule == "unordered-iteration"}

    def taint_blocked(lineno: int) -> bool:
        return lineno in flagged or _source_allowed(scan, allowances, lineno)

    # Per-function summaries, refined to a fixed point: `ret` is the taint
    # of the return value ("U" = hash order, ("P", i) = depends on param i);
    # `psink` is the set of parameter positions that flow into a sink.
    summaries: dict[str, dict] = {
        f.name: {"ret": set(), "psink": set()} for f in funcs}

    def expr_labels(expr: str, tainted: dict[str, set], params: list[str],
                    depth: int = 0) -> set:
        labels: set = set()
        if depth > 3:
            return labels
        for m in TAINT_SOURCE_RE.finditer(expr):
            if m.group(1) in unordered:
                labels.add("U")
        for m in FUNC_CANDIDATE_RE.finditer(expr):
            summary = summaries.get(m.group(1))
            if not summary or not summary["ret"]:
                continue
            # Positional arg matching is overkill for a linter: any taint in
            # the call's argument text propagates a param-dependent return.
            arg_text = expr[m.end():]
            for lab in summary["ret"]:
                if lab == "U":
                    labels.add("U")
                else:
                    arg_labels = expr_labels(
                        arg_text, tainted, params, depth + 1)
                    labels |= arg_labels
        for m in re.finditer(r"\b([A-Za-z_]\w*)\b", expr):
            tok = m.group(1)
            if tok in tainted:
                labels |= tainted[tok]
            if tok in params:
                labels.add(("P", params.index(tok)))
        return labels

    findings: list[Finding] = []
    for _ in range(TAINT_PASSES):
        findings = []
        changed = False
        for f in funcs:
            tainted: dict[str, set] = {}
            summary = summaries[f.name]

            def sink_hit(lineno: int, args: str) -> None:
                nonlocal changed
                labels = expr_labels(args, tainted, f.params)
                if "U" in labels:
                    if _source_allowed(scan, allowances, lineno):
                        return
                    findings.append(Finding(
                        path, lineno, "ordering-taint",
                        "hash-ordered value reaches a release/checkpoint "
                        "sink: the data flowing into this call was "
                        "materialized from an unordered container (possibly "
                        "through locals or helper returns) and never "
                        "sorted; sort it (std::sort / std::stable_sort) "
                        "before the sink"))
                for lab in labels:
                    if lab != "U" and lab[1] not in summary["psink"]:
                        summary["psink"].add(lab[1])
                        changed = True

            for lineno, code in f.body:
                for m in TAINT_SANITIZE_RE.finditer(code):
                    name = m.group(1)
                    tainted.pop(name, None)
                rf = RANGE_FOR_RE.search(code)
                if rf and (rf.group(1) in unordered or
                           tainted.get(rf.group(1))):
                    var = RANGE_FOR_VAR_RE.search(code)
                    if var and not taint_blocked(lineno):
                        tainted[var.group(1)] = (
                            tainted.get(rf.group(1)) or {"U"}) | set()
                dc = DECL_CTOR_RE.search(code)
                if dc and dc.group(1) != dc.group(2) and (
                        dc.group(2) in unordered or tainted.get(dc.group(2))):
                    if not taint_blocked(lineno):
                        # Materialize-then-sort within the old rule's window
                        # is sanitized a line later by TAINT_SANITIZE_RE.
                        tainted[dc.group(1)] = (
                            tainted.get(dc.group(2)) or {"U"}) | set()
                asg = ASSIGN_RE.search(code)
                if asg and not taint_blocked(lineno) and "==" not in code[
                        max(0, asg.start(2) - 3):asg.start(2) + 1]:
                    labels = expr_labels(asg.group(2), tainted, f.params)
                    if labels:
                        tainted[asg.group(1)] = (
                            tainted.get(asg.group(1), set()) | labels)
                for m in SINK_CALL_RE.finditer(code):
                    sink_hit(lineno, code[m.end():])
                if writer_sink_re:
                    for m in writer_sink_re.finditer(code):
                        sink_hit(lineno, code[m.end():])
                # Interprocedural sinks: a call into a function whose params
                # flow to a sink is itself a sink for tainted arguments.
                for m in FUNC_CANDIDATE_RE.finditer(code):
                    callee = summaries.get(m.group(1))
                    if callee and callee["psink"] and m.group(1) != f.name:
                        args = code[m.end():]
                        if "U" in expr_labels(args, tainted, f.params):
                            if _source_allowed(scan, allowances, lineno):
                                continue
                            findings.append(Finding(
                                path, lineno, "ordering-taint",
                                f"hash-ordered value passed to "
                                f"'{m.group(1)}', which forwards this "
                                "argument into a release/checkpoint sink; "
                                "sort the value before the call"))
                ret = RETURN_RE.search(code)
                if ret:
                    before = summary["ret"] | set()
                    summary["ret"] |= expr_labels(
                        ret.group(1), tainted, f.params)
                    if summary["ret"] != before:
                        changed = True
        if not changed:
            break

    seen: set[tuple[int, str]] = set()
    for finding in findings:
        key = (finding.line, finding.message)
        if key in seen:
            continue
        seen.add(key)
        if suppressed(scan, allowances, finding.line, "ordering-taint"):
            continue
        scan.findings.append(finding)


def check_policy_budget(path: Path, rel: str, lines: list[str],
                        allowances: dict[int, Allowance],
                        scan: FileScan) -> None:
    if not is_policy_source(rel):
        return
    for f in split_functions(lines):
        if f.name in POLICY_BUDGET_HELPERS:
            continue
        first_draw = None
        has_release_items_call = None
        accounted = False
        for lineno, code in f.body:
            if first_draw is None and POLICY_DRAW_RE.search(code):
                first_draw = lineno
            if (has_release_items_call is None and
                    RELEASE_ITEMS_CALL_RE.search(code)):
                has_release_items_call = lineno
            if POLICY_ACCOUNT_RE.search(code):
                accounted = True
        if accounted:
            continue
        if first_draw is not None:
            if not suppressed(scan, allowances, first_draw, "policy-budget"):
                scan.findings.append(Finding(
                    path, first_draw, "policy-budget",
                    f"noise draw in '{f.name}' with no epsilon accounting: "
                    "pair every draw with EpsilonSpent()/Accumulate() (or "
                    "epsilon_spent bookkeeping) in the same function, or "
                    "draw inside the ReleaseItems/ReleaseCommon composition "
                    "helpers where DpPolicyBase accounts for it"))
        if has_release_items_call is not None:
            if not suppressed(scan, allowances, has_release_items_call,
                              "policy-budget"):
                scan.findings.append(Finding(
                    path, has_release_items_call, "policy-budget",
                    f"'{f.name}' calls ReleaseItems() without epsilon "
                    "accounting: the composition contract pairs every "
                    "ReleaseItems call with EpsilonSpent()/Accumulate() in "
                    "the same function (see DpPolicyBase::ReleaseCommon)"))


def check_lock_discipline(path: Path, rel: str, lines: list[str],
                          allowances: dict[int, Allowance],
                          scan: FileScan) -> None:
    if rel in LOCK_DISCIPLINE_EXEMPT:
        return
    stripped = [strip_strings_and_line_comment(l) for l in lines]
    text = "\n".join(stripped)
    for idx, code in enumerate(stripped, start=1):
        m = MUTEX_MEMBER_RE.match(code)
        if not m:
            continue
        name = m.group(1)
        if re.search(GUARDED_BY_RE_TMPL.format(name=re.escape(name)), text):
            continue
        if suppressed(scan, allowances, idx, "lock-discipline"):
            continue
        bare_std = "std::mutex" in code or code.lstrip().startswith("mutex")
        detail = (
            "a bare std::mutex member is invisible to -Wthread-safety; use "
            "Mutex from common/mutex.h and annotate the state it guards "
            "with BFLY_GUARDED_BY"
            if bare_std else
            "no member is annotated BFLY_GUARDED_BY(" + name + "): a lock "
            "guarding nothing is a protocol that lives only in comments — "
            "annotate the guarded state")
        scan.findings.append(Finding(
            path, idx, "lock-discipline",
            f"mutex member '{name}': {detail}"))


def check_raw_atomic(path: Path, rel: str, lines: list[str],
                     allowances: dict[int, Allowance], scan: FileScan) -> None:
    for idx, raw in enumerate(lines, start=1):
        m = RAW_ATOMIC_RE.search(strip_strings_and_line_comment(raw))
        if not m or suppressed(scan, allowances, idx, "raw-atomic"):
            continue
        scan.findings.append(Finding(
            path, idx, "raw-atomic",
            f"{m.group(0)}: -Wthread-safety cannot see a lock-free protocol; "
            "use Mutex from common/mutex.h, or justify the site with "
            "// bfly-lint: allow(raw-atomic) <why>"))


def raw_clock_exempt(rel: str) -> bool:
    return rel in RAW_CLOCK_EXEMPT or rel.startswith(RAW_CLOCK_EXEMPT_DIRS)


def check_raw_clock(path: Path, rel: str, lines: list[str],
                    allowances: dict[int, Allowance], scan: FileScan) -> None:
    if raw_clock_exempt(rel):
        return
    for idx, raw in enumerate(lines, start=1):
        m = RAW_CLOCK_RE.search(strip_strings_and_line_comment(raw))
        if not m or suppressed(scan, allowances, idx, "raw-clock"):
            continue
        scan.findings.append(Finding(
            path, idx, "raw-clock",
            f"std::chrono::{m.group(0)}: time with Stopwatch or StageClock "
            "from common/timing.h, so the span reaches the stage record, or "
            "justify the site with // bfly-lint: allow(raw-clock) <why>"))


def scan_file(path: Path, root: Path) -> FileScan:
    scan = FileScan()
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        scan.findings.append(Finding(path, 0, "io", f"unreadable: {e}"))
        return scan
    lines = text.splitlines()
    allowances = parse_allowances(path, lines)
    scan.allowances = list(allowances.values())

    try:
        rel = str(path.relative_to(root)).replace("\\", "/")
    except ValueError:
        rel = str(path)

    header_lines: list[str] | None = None
    if path.suffix == ".cc":
        header = path.with_suffix(".h")
        if header.exists():
            header_lines = header.read_text(
                encoding="utf-8", errors="replace").splitlines()

    check_banned_rng(path, rel, lines, allowances, scan)
    check_policy_rng(path, rel, lines, allowances, scan)
    check_unordered_iteration(path, rel, lines, header_lines, allowances, scan)
    check_writer_bypass(path, rel, lines, allowances, scan)
    check_float_support_accum(path, rel, lines, allowances, scan)
    check_container_promotion(path, rel, lines, allowances, scan)
    check_ordering_taint(path, rel, lines, header_lines, allowances, scan)
    check_policy_budget(path, rel, lines, allowances, scan)
    check_lock_discipline(path, rel, lines, allowances, scan)
    check_raw_atomic(path, rel, lines, allowances, scan)
    check_raw_clock(path, rel, lines, allowances, scan)

    # An allowance that names an unknown rule, lacks a justification, or
    # suppresses nothing is itself a finding — dead suppressions rot.
    for a in scan.allowances:
        bad = False
        for r in a.rules:
            if r not in RULES:
                bad = True
                scan.findings.append(Finding(
                    path, a.line, "bad-allowance", f"unknown rule '{r}'"))
        if not a.justification:
            bad = True
            scan.findings.append(Finding(
                path, a.line, "bad-allowance",
                "allowance needs a justification: "
                "// bfly-lint: allow(rule) <why this is safe>"))
        if not bad and a.line not in scan.used_allowances:
            scan.findings.append(Finding(
                path, a.line, "stale-allow",
                f"allowance allow({', '.join(a.rules)}) suppresses nothing "
                f"on line {a.target}: the code it justified has moved or "
                "been fixed — delete the annotation (a dead allowance "
                "silently swallows the next real violation here)"))
    return scan


def default_targets(root: Path) -> list[Path]:
    targets: list[Path] = []
    for sub in ("src", "bench", "examples"):
        base = root / sub
        if base.is_dir():
            targets.extend(sorted(base.rglob("*.cc")))
            targets.extend(sorted(base.rglob("*.cpp")))
            targets.extend(sorted(base.rglob("*.h")))
    return targets


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bfly_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to scan "
                             "(default: src/ bench/ examples/ under --root)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent.parent,
                        help="repository root for relative-path reporting")
    parser.add_argument("--list-allowed", action="store_true",
                        help="print every allowlist annotation and exit")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if args.paths:
        targets = []
        for p in args.paths:
            p = p.resolve()
            if p.is_dir():
                targets.extend(sorted(p.rglob("*.cc")))
                targets.extend(sorted(p.rglob("*.cpp")))
                targets.extend(sorted(p.rglob("*.h")))
            else:
                targets.append(p)
    else:
        targets = default_targets(root)

    if not targets:
        print("bfly_lint: no files to scan", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    allowances: list[Allowance] = []
    listed: list[tuple[Allowance, bool, str]] = []
    for path in targets:
        scan = scan_file(path, root)
        findings.extend(scan.findings)
        allowances.extend(scan.allowances)
        if args.list_allowed:
            try:
                file_lines = path.read_text(
                    encoding="utf-8", errors="replace").splitlines()
            except OSError:
                file_lines = []
            for a in scan.allowances:
                used = a.line in scan.used_allowances
                snippet = ""
                if 0 < a.target <= len(file_lines):
                    snippet = file_lines[a.target - 1].strip()
                listed.append((a, used, snippet))

    if args.list_allowed:
        stale = 0
        for a, used, snippet in sorted(
                listed, key=lambda x: (str(x[0].path), x[0].line)):
            try:
                rel = a.path.relative_to(root)
            except ValueError:
                rel = a.path
            mark = ""
            if not used:
                mark = " [STALE]"
                stale += 1
            print(f"{rel}:{a.line}: allow({', '.join(a.rules)}) "
                  f"{a.justification}{mark}")
            if snippet:
                print(f"    -> {snippet}")
        if stale:
            print(f"bfly_lint: {stale} stale allowance(s) — each suppresses "
                  "nothing and should be deleted", file=sys.stderr)
            return 1
        return 0

    for f in sorted(findings, key=lambda x: (str(x.path), x.line)):
        print(f.render(root))
    if findings:
        print(f"bfly_lint: {len(findings)} finding(s) in "
              f"{len(targets)} file(s)", file=sys.stderr)
        return 1
    print(f"bfly_lint: clean ({len(targets)} files, "
          f"{len(allowances)} allowance(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
