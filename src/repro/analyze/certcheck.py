"""Independent re-validation of symbolic EBDA certificates.

This module deliberately does **not** trust — or import — the prover.  It
is stdlib-only (``json``, ``hashlib``, ``re``, ``dataclasses``), carries
its own tiny channel-notation parser and its own copies of the closed
forms, and re-derives every certificate verdict from the family
description embedded in the certificate itself:

1. the content digest is recomputed over the canonical JSON payload (any
   mutated byte either breaks the JSON, changes the digest, or changes a
   value the re-derivation contradicts);
2. structural fields (schema version, status, region shape, domain) are
   validated against the documented certificate format;
3. the premises are checked against a hardcoded whitelist of admissible
   axioms — a certificate may only lean on facts this checker recognises,
   applied to the right topology kind;
4. the verdict (status + violation region) is re-derived with independent
   arithmetic and compared.

The only shared knowledge is the *file format* documented in
:mod:`repro.analyze.symbolic.certificate` and the mathematics of the
paper; agreement between two implementations is the point.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Any

__all__ = ["CheckResult", "check_certificate", "check_certificates"]

_SCHEMA = 1
_RULES = (
    "EBDA001",
    "EBDA002",
    "EBDA003",
    "EBDA004",
    "EBDA005",
    "EBDA008",
    "EBDA009",
)
_STATUSES = ("clean", "violation", "inapplicable")
_KINDS = ("mesh", "torus", "dragonfly", "fattree")

#: Own copy of the structured-violation -> rule mapping (the prover reads
#: :data:`repro.core.theorems.VIOLATION_RULES`; sharing it would let one
#: typo corrupt both sides).
_CODE_RULES = {
    "duplicate-pair": "EBDA001",
    "non-ascending": "EBDA002",
    "backward": "EBDA003",
    "overlap": "EBDA003",
    "foreign-channel": "EBDA004",
}

#: Realized link directions per topology kind (None = every direction).
_REALIZED: dict[str, tuple[tuple[int, int], ...] | None] = {
    "mesh": None,
    "torus": None,
    "dragonfly": ((0, 1), (1, 1)),
    "fattree": ((0, 1), (0, -1)),
}

#: Admissible axioms: name -> topology kinds it may be applied to (None =
#: any kind).  A certificate citing an unknown axiom, or a known one on
#: the wrong kind, is rejected.
_AXIOMS: dict[str, tuple[str, ...] | None] = {
    "k-independence": None,
    "dim-symmetry": None,
    "extractor-soundness": None,
    "extractor-serving-order": None,
    "needed-margin": None,
    "relation-monotone": ("torus",),
    "ring-structure": ("torus",),
    "acyclic-link-walks": ("mesh", "fattree"),
    "dragonfly-two-hop-rings": ("dragonfly",),
    "realized-directions:mesh": ("mesh",),
    "realized-directions:torus": ("torus",),
    "realized-directions:dragonfly": ("dragonfly",),
    "realized-directions:fattree": ("fattree",),
}

#: Axioms a rule's derivation must cite, by (rule, kind-or-None).
_REQUIRED_AXIOMS: dict[str, dict[str | None, tuple[str, ...]]] = {
    "EBDA002": {None: ("extractor-soundness",)},
    "EBDA003": {None: ("extractor-soundness",)},
    "EBDA004": {None: ("extractor-soundness",)},
    "EBDA005": {
        "mesh": ("acyclic-link-walks",),
        "fattree": ("acyclic-link-walks",),
        "dragonfly": ("dragonfly-two-hop-rings",),
        "torus": ("ring-structure", "relation-monotone"),
    },
    "EBDA008": {None: ("extractor-serving-order",)},
}

_LETTERS = "XYZTUVW"
_CHANNEL_RE = re.compile(
    r"^([A-Z]|D\d+)(\d*)([+-])(?:@([A-Za-z0-9_]+))?$"
)

#: A parsed channel: (dim, vc, sign, cls).
_Chan = tuple[int, int, int, str]


# Kept apart from repro.jsonio on purpose: the independent checker shares no code.
def _canonical(obj: Any) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def _digest(payload: dict[str, Any]) -> str:
    return "sha256:" + hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _parse_channel(text: str) -> _Chan | None:
    m = _CHANNEL_RE.match(text.strip())
    if m is None:
        return None
    dim_s, vc_s, sign_s, cls = m.groups()
    if dim_s.startswith("D") and len(dim_s) > 1:
        dim = int(dim_s[1:]) - 1
    elif dim_s in _LETTERS:
        dim = _LETTERS.index(dim_s)
    else:
        return None
    return (dim, int(vc_s) if vc_s else 1, 1 if sign_s == "+" else -1, cls or "")


def _parse_partitions(fixed: str) -> list[list[_Chan]] | None:
    parts: list[list[_Chan]] = []
    for seg in fixed.split("->"):
        chans: list[_Chan] = []
        for token in seg.split():
            ch = _parse_channel(token)
            if ch is None:
                return None
            chans.append(ch)
        if not chans:
            return None
        parts.append(chans)
    return parts


# ---------------------------------------------------------------------------
# Region algebra (own copy)
# ---------------------------------------------------------------------------

_NONE = {"kind": "none"}
_ALL = {"kind": "all"}


def _region_ok(region: Any) -> bool:
    if not isinstance(region, dict):
        return False
    kind = region.get("kind")
    if kind in ("none", "all"):
        return set(region) == {"kind"}
    if kind == "n-ge":
        return set(region) == {"kind", "n0"} and isinstance(region["n0"], int)
    if kind == "k-ge":
        return set(region) == {"kind", "k0"} and isinstance(region["k0"], int)
    return False


def _n_ge(n0: int, n_min: int) -> dict[str, Any]:
    return dict(_ALL) if n0 <= n_min else {"kind": "n-ge", "n0": n0}


def _k_ge(k0: int, k_min: int) -> dict[str, Any]:
    return dict(_ALL) if k0 <= k_min else {"kind": "k-ge", "k0": k0}


def _union(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any] | None:
    if a == _NONE:
        return b
    if b == _NONE:
        return a
    if a == _ALL or b == _ALL:
        return dict(_ALL)
    if a["kind"] == b["kind"] == "n-ge":
        return {"kind": "n-ge", "n0": min(a["n0"], b["n0"])}
    if a["kind"] == b["kind"] == "k-ge":
        return {"kind": "k-ge", "k0": min(a["k0"], b["k0"])}
    return None


# ---------------------------------------------------------------------------
# Description model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Desc:
    """The family description, re-parsed without trusting the prover."""

    kind: str
    shape: str
    n_min: int
    n_fixed: int | None
    k_min: int
    rule: str
    claims: bool
    stages: tuple[tuple[str, tuple[tuple[int, int, str], ...]], ...]
    spans: tuple[
        tuple[str, tuple[tuple[int, int, str], ...], tuple[tuple[int, int, str], ...]],
        ...,
    ]
    fixed: str
    extra_turns: tuple[tuple[str, str], ...]


def _patterns(raw: Any) -> tuple[tuple[int, int, str], ...] | None:
    out = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 3
            or item[0] not in (1, -1)
            or not isinstance(item[1], int)
            or not isinstance(item[2], str)
        ):
            return None
        out.append((item[0], item[1], item[2]))
    return tuple(out)


def _load_desc(raw: Any) -> _Desc | None:
    if not isinstance(raw, dict):
        return None
    try:
        kind = raw["kind"]
        shape = raw["shape"]
        n_min = raw["n_min"]
        n_fixed = raw["n_fixed"]
        k_min = raw["k_min"]
        rule = raw["rule"]
        claims = raw["claims_fully_adaptive"]
        stages_raw = raw["stages"]
        spans_raw = raw["spans"]
        fixed = raw["fixed"]
        extra_raw = raw["extra_turns"]
    except (KeyError, TypeError):
        return None
    if kind not in _KINDS or shape not in ("stages", "spans", "fixed"):
        return None
    if not isinstance(n_min, int) or n_min < 1 or not isinstance(k_min, int) or k_min < 2:
        return None
    if n_fixed is not None and not isinstance(n_fixed, int):
        return None
    stages = []
    for s in stages_raw:
        own = _patterns(s.get("own", ()))
        if own is None or not isinstance(s.get("name"), str):
            return None
        stages.append((s["name"], own))
    spans = []
    for s in spans_raw:
        anchor = _patterns(s.get("anchor", ()))
        others = _patterns(s.get("others", ()))
        if anchor is None or others is None or not isinstance(s.get("name"), str):
            return None
        spans.append((s["name"], anchor, others))
    extra = []
    for t in extra_raw:
        if not isinstance(t, list) or len(t) != 2:
            return None
        extra.append((str(t[0]), str(t[1])))
    shapes_present = sum(1 for x in (stages, spans, fixed) if x)
    if shapes_present != 1:
        return None
    return _Desc(
        kind=kind,
        shape=shape,
        n_min=n_min,
        n_fixed=n_fixed,
        k_min=k_min,
        rule=str(rule),
        claims=bool(claims),
        stages=tuple(stages),
        spans=tuple(spans),
        fixed=str(fixed),
        extra_turns=tuple(extra),
    )


# ---------------------------------------------------------------------------
# Independent verdict derivation
# ---------------------------------------------------------------------------

def _both_signs(patterns: tuple[tuple[int, int, str], ...]) -> bool:
    return len({p[0] for p in patterns}) == 2


def _fixed_duplicate_pairs(parts: list[list[_Chan]]) -> bool:
    for part in parts:
        signs_by_dim: dict[int, set[int]] = {}
        for dim, _vc, sign, _cls in part:
            signs_by_dim.setdefault(dim, set()).add(sign)
        if sum(1 for s in signs_by_dim.values() if len(s) == 2) >= 2:
            return True
    return False


def _fixed_overlap(parts: list[list[_Chan]]) -> bool:
    seen: set[_Chan] = set()
    for part in parts:
        for ch in part:
            if ch in seen:
                return True
            seen.add(ch)
    return False


def _locate(desc: _Desc, ch: _Chan) -> int | None:
    dim, vc, sign, cls = ch
    if desc.shape == "fixed":
        parts = _parse_partitions(desc.fixed)
        if parts is None:
            return None
        for i, part in enumerate(parts):
            if ch in part:
                return i
        return None
    pat = (sign, vc, cls)
    if desc.shape == "stages":
        for s, (_name, own) in enumerate(desc.stages):
            if pat in own:
                return dim * len(desc.stages) + s
        return None
    for i, (_name, anchor, others) in enumerate(desc.spans):
        pool = anchor if dim == 0 else others
        if pat in pool:
            return i
    return None


def _same_dim_rank_ok(
    own: tuple[tuple[int, int, str], ...], src: _Chan, dst: _Chan
) -> bool:
    """Theorem-2 closed form: ascending construction rank, or same-sign
    I-turns when the dimension has a single direction."""
    ps, pd = (src[2], src[1], src[3]), (dst[2], dst[1], dst[3])
    if ps == pd:
        return False
    if _both_signs(own):
        return own.index(ps) < own.index(pd)
    return src[2] == dst[2]


def _fixed_uturn_ok(parts: list[list[_Chan]], idx: int, src: _Chan, dst: _Chan) -> bool:
    part = parts[idx]
    same_dim = [ch for ch in part if ch[0] == src[0]]
    if src == dst or src not in part or dst not in part:
        return False
    signs = {ch[2] for ch in same_dim}
    if len(signs) == 2:
        return same_dim.index(src) < same_dim.index(dst)
    return src[2] == dst[2]


def _classify_extras(desc: _Desc) -> list[tuple[tuple[str, str], str]] | None:
    out: list[tuple[tuple[str, str], str]] = []
    parts = _parse_partitions(desc.fixed) if desc.shape == "fixed" else None
    for src_s, dst_s in desc.extra_turns:
        src, dst = _parse_channel(src_s), _parse_channel(dst_s)
        if src is None or dst is None:
            return None
        if desc.shape != "fixed" and max(src[0], dst[0]) >= desc.n_min:
            # The prover refuses such families; a certificate carrying one
            # is malformed.
            return None
        src_idx, dst_idx = _locate(desc, src), _locate(desc, dst)
        if src_idx is None or dst_idx is None:
            out.append(((src_s, dst_s), "foreign-channel"))
        elif src_idx == dst_idx:
            if src[0] != dst[0]:
                out.append(((src_s, dst_s), "granted"))
            elif desc.shape == "fixed":
                assert parts is not None
                ok = _fixed_uturn_ok(parts, src_idx, src, dst)
                out.append(((src_s, dst_s), "granted" if ok else "non-ascending"))
            else:
                own = _own_pool(desc, src)
                if own is None:
                    return None
                ok = _same_dim_rank_ok(own, src, dst)
                out.append(((src_s, dst_s), "granted" if ok else "non-ascending"))
        elif dst_idx < src_idx:
            out.append(((src_s, dst_s), "backward"))
        else:
            out.append(((src_s, dst_s), "forward"))
    return out


def _own_pool(desc: _Desc, ch: _Chan) -> tuple[tuple[int, int, str], ...] | None:
    pat = (ch[2], ch[1], ch[3])
    if desc.shape == "stages":
        for _name, own in desc.stages:
            if pat in own:
                return own
        return None
    for _name, anchor, others in desc.spans:
        pool = anchor if ch[0] == 0 else others
        if pat in pool:
            return pool
    return None


def _derive_pairs(desc: _Desc) -> dict[str, Any] | None:
    if desc.shape == "fixed":
        parts = _parse_partitions(desc.fixed)
        if parts is None:
            return None
        return dict(_ALL) if _fixed_duplicate_pairs(parts) else dict(_NONE)
    if desc.shape == "stages":
        return dict(_NONE)  # single-dimension partitions: at most one pair
    region: dict[str, Any] | None = dict(_NONE)
    for _name, anchor, others in desc.spans:
        a, b = int(_both_signs(anchor)), int(_both_signs(others))
        # pairs(n) = a + b*(n-1) >= 2
        if b == 0:
            r = dict(_ALL) if a >= 2 else dict(_NONE)
        else:
            r = _n_ge(-(-(2 - (a - b)) // b), desc.n_min)
        region = _union(region, r) if region is not None else None
    return region


def _derive_turn_rule(desc: _Desc, rule: str) -> dict[str, Any] | None:
    classified = _classify_extras(desc)
    if classified is None:
        return None
    region: dict[str, Any] | None = dict(_NONE)
    for _turn, verdict in classified:
        if verdict in _CODE_RULES and _CODE_RULES[verdict] == rule:
            region = _union(region, dict(_ALL)) if region is not None else None
    if rule == "EBDA003" and region is not None:
        if desc.shape == "fixed":
            parts = _parse_partitions(desc.fixed)
            if parts is None:
                return None
            if _fixed_overlap(parts):
                region = _union(region, dict(_ALL))
        elif desc.shape == "stages":
            for i, (_na, own_a) in enumerate(desc.stages):
                for _nb, own_b in desc.stages[i + 1:]:
                    if set(own_a) & set(own_b):
                        region = _union(region, dict(_ALL))
        else:
            for i, (_na, anc_a, oth_a) in enumerate(desc.spans):
                for _nb, anc_b, oth_b in desc.spans[i + 1:]:
                    if set(anc_a) & set(anc_b):
                        region = _union(region, dict(_ALL))
                    if (
                        region is not None
                        and set(oth_a) & set(oth_b)
                    ):
                        region = _union(region, _n_ge(2, desc.n_min))
    return region


def _derive_rings(desc: _Desc) -> tuple[str, dict[str, Any]] | None:
    if desc.kind in ("mesh", "fattree"):
        return ("clean", dict(_NONE))
    if desc.kind == "dragonfly":
        return ("inapplicable", dict(_NONE))
    if desc.shape != "stages" or desc.rule not in ("none", "dateline"):
        return None
    tag_r = "r" if desc.rule == "dateline" else ""
    tag_w = "w" if desc.rule == "dateline" else ""
    region: dict[str, Any] | None = dict(_NONE)
    for sign in (1, -1):
        nodes: list[tuple[int, int, int, str]] = []  # (stage, sign, vc, cls)
        for s, (_name, own) in enumerate(desc.stages):
            for p_sign, p_vc, p_cls in own:
                if p_sign == sign:
                    nodes.append((s, p_sign, p_vc, p_cls))
        c_r = [x for x in nodes if x[3] == tag_r]
        c_w = [x for x in nodes if x[3] == tag_w]
        if not c_r or not c_w:
            continue

        def allowed(a: tuple[int, int, int, str], b: tuple[int, int, int, str]) -> bool:
            if a == b:
                return True  # straight-through, same class on both links
            if a[0] < b[0]:
                return True  # Theorem 3: forward transition
            if a[0] > b[0]:
                return False
            own = desc.stages[a[0]][1]
            pa, pb = (a[1], a[2], a[3]), (b[1], b[2], b[3])
            if _both_signs(own):
                return own.index(pa) < own.index(pb)
            return a[1] == b[1]

        rel_a = {(a, b) for a in c_r for b in c_r if allowed(a, b)}
        rel_b = {(a, b) for a in c_r for b in c_w if allowed(a, b)}
        rel_w = {(a, b) for a in c_w for b in c_r if allowed(a, b)}

        def compose(
            r1: set[tuple[Any, Any]], r2: set[tuple[Any, Any]]
        ) -> set[tuple[Any, Any]]:
            by_src: dict[Any, set[Any]] = {}
            for x, y in r2:
                by_src.setdefault(x, set()).add(y)
            return {(x, z) for x, y in r1 for z in by_src.get(y, ())}

        def cyclic(rel: set[tuple[Any, Any]]) -> bool:
            verts = {x for x, _ in rel} | {y for _, y in rel}
            adj: dict[Any, set[Any]] = {v: set() for v in verts}
            for x, y in rel:
                adj[x].add(y)
            state: dict[Any, int] = dict.fromkeys(verts, 0)

            def dfs(v: Any) -> bool:
                state[v] = 1
                for w in adj[v]:
                    if state[w] == 1 or (state[w] == 0 and dfs(w)):
                        return True
                state[v] = 2
                return False

            return any(state[v] == 0 and dfs(v) for v in verts)

        saturation = max(0, len(c_r) - 1)
        power: set[tuple[Any, Any]] = {(x, x) for x in c_r}
        k0: int | None = None
        for steps in range(0, saturation + 2):
            k = steps + 2
            if k >= desc.k_min and k0 is None:
                loop = compose(compose(power, rel_b), rel_w)
                if cyclic(loop):
                    k0 = k
            power = compose(power, rel_a)
        if k0 is not None:
            r = _k_ge(k0, desc.k_min)
            region = _union(region, r) if region is not None else None
    if region is None:
        return None
    return ("violation" if region != _NONE else "clean", region)


def _derive_coverage(desc: _Desc) -> dict[str, Any] | None:
    realized = _REALIZED[desc.kind]
    region: dict[str, Any] | None = dict(_NONE)
    if desc.shape == "fixed":
        parts = _parse_partitions(desc.fixed)
        if parts is None:
            return None
        provided = {(ch[0], ch[2]) for part in parts for ch in part}
        for d in sorted({dim for dim, _ in provided}):
            for sign in (1, -1):
                if realized is not None and (d, sign) not in realized:
                    continue
                if (d, sign) not in provided:
                    region = _union(region, dict(_ALL)) if region else None
        return region
    if desc.shape == "stages":
        signs = {p[0] for _name, own in desc.stages for p in own}
        for sign in (1, -1):
            if sign not in signs:
                region = _union(region, dict(_ALL)) if region else None
        return region
    anchor_signs = {p[0] for _n, anchor, _o in desc.spans for p in anchor}
    other_signs = {p[0] for _n, _a, others in desc.spans for p in others}
    for sign in (1, -1):
        if sign not in anchor_signs and region is not None:
            region = _union(region, dict(_ALL))
        if sign not in other_signs and region is not None:
            region = _union(region, _n_ge(2, desc.n_min))
    return region


def _min_channels(n: int) -> int:
    return (n + 1) * 2 ** (n - 1)


def _derive_adaptivity(desc: _Desc) -> dict[str, Any] | None:
    if not desc.claims:
        return dict(_NONE)
    if desc.shape == "fixed":
        parts = _parse_partitions(desc.fixed)
        if parts is None:
            return None
        c0, c1 = sum(len(p) for p in parts), 0
    elif desc.shape == "stages":
        c0, c1 = 0, sum(len(own) for _name, own in desc.stages)
    else:
        anchors = sum(len(a) for _n, a, _o in desc.spans)
        others = sum(len(o) for _n, _a, o in desc.spans)
        c0, c1 = anchors - others, others
    n_hi = desc.n_fixed if desc.n_fixed is not None else desc.n_min + 64
    for n in range(desc.n_min, n_hi + 1):
        if c0 + c1 * n < _min_channels(n):
            if (n + 3) * 2 ** (n - 1) < c1:
                return None  # margin lemma would not apply: malformed
            return _n_ge(n, desc.n_min)
    return dict(_NONE) if desc.n_fixed is not None else None


def _derive(desc: _Desc, rule: str) -> tuple[str, dict[str, Any]] | None:
    if rule == "EBDA001":
        region = _derive_pairs(desc)
    elif rule in ("EBDA002", "EBDA003", "EBDA004"):
        region = _derive_turn_rule(desc, rule)
    elif rule == "EBDA005":
        return _derive_rings(desc)
    elif rule == "EBDA008":
        region = _derive_coverage(desc)
    elif rule == "EBDA009":
        region = _derive_adaptivity(desc)
    else:
        return None
    if region is None:
        return None
    return ("violation" if region != _NONE else "clean", region)


# ---------------------------------------------------------------------------
# The check entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """Outcome of independently re-validating one certificate."""

    family: str
    rule: str
    ok: bool
    problems: tuple[str, ...] = ()

    def describe(self) -> str:
        head = f"{self.family}/{self.rule}: " if self.family or self.rule else ""
        if self.ok:
            return f"{head}verified"
        return f"{head}REJECTED ({'; '.join(self.problems)})"


def _structural_problems(data: dict[str, Any]) -> list[str]:
    problems = []
    if data.get("schema") != _SCHEMA:
        problems.append(f"unknown schema version {data.get('schema')!r}")
    if data.get("rule") not in _RULES:
        problems.append(f"unknown rule {data.get('rule')!r}")
    if data.get("status") not in _STATUSES:
        problems.append(f"unknown status {data.get('status')!r}")
    if not _region_ok(data.get("region")):
        problems.append(f"malformed region {data.get('region')!r}")
    if not isinstance(data.get("family"), str) or not data.get("family"):
        problems.append("missing family name")
    if not isinstance(data.get("premises"), list):
        problems.append("premises must be a list")
    if not isinstance(data.get("witnesses"), dict):
        problems.append("witnesses must be an object")
    return problems


def _domain_problems(data: dict[str, Any], desc: _Desc) -> list[str]:
    domain = data.get("domain")
    if not isinstance(domain, dict):
        return ["malformed domain"]
    expect_n_min = desc.n_fixed if desc.n_fixed is not None else desc.n_min
    n_dom, k_dom = domain.get("n"), domain.get("k")
    problems = []
    if not isinstance(n_dom, dict) or n_dom.get("min") != expect_n_min:
        problems.append(f"domain n does not match the description: {n_dom!r}")
    elif desc.n_fixed is not None and n_dom.get("max") != desc.n_fixed:
        problems.append("fixed-n family must pin n in the domain")
    if not isinstance(k_dom, dict) or k_dom.get("min") != desc.k_min:
        problems.append(f"domain k does not match the description: {k_dom!r}")
    return problems


def _premise_problems(data: dict[str, Any], desc: _Desc) -> list[str]:
    problems = []
    cited: set[str] = set()
    for p in data.get("premises", []):
        if not isinstance(p, dict) or not isinstance(p.get("name"), str):
            problems.append(f"malformed premise {p!r}")
            continue
        name = p["name"]
        kinds = _AXIOMS.get(name)
        if name not in _AXIOMS:
            problems.append(f"unknown axiom {name!r}")
        elif kinds is not None and desc.kind not in kinds:
            problems.append(f"axiom {name!r} does not apply to a {desc.kind}")
        cited.add(name)
    rule = data.get("rule", "")
    required = _REQUIRED_AXIOMS.get(rule, {})
    for need in required.get(desc.kind, required.get(None, ())):
        if need not in cited:
            problems.append(f"derivation of {rule} must cite axiom {need!r}")
    if rule == "EBDA009" and desc.claims and "needed-margin" not in cited:
        problems.append("an armed EBDA009 derivation must cite 'needed-margin'")
    return problems


def check_certificate(data: str | dict[str, Any]) -> CheckResult:
    """Re-validate one certificate from its JSON (string or dict) form."""
    if isinstance(data, str):
        try:
            parsed = json.loads(data)
        except ValueError as exc:
            return CheckResult("", "", False, (f"not valid JSON: {exc}",))
        if not isinstance(parsed, dict):
            return CheckResult("", "", False, ("certificate must be an object",))
        data = parsed
    if not isinstance(data, dict):
        return CheckResult("", "", False, ("certificate must be an object",))
    family = str(data.get("family", ""))
    rule = str(data.get("rule", ""))
    problems = _structural_problems(data)
    if problems:
        return CheckResult(family, rule, False, tuple(problems))

    payload = {key: value for key, value in data.items() if key != "digest"}
    expected = _digest(payload)
    if data.get("digest") != expected:
        problems.append(
            f"digest mismatch: certificate says {data.get('digest')!r},"
            f" canonical payload hashes to {expected!r}"
        )
        return CheckResult(family, rule, False, tuple(problems))

    desc = _load_desc(data.get("witnesses", {}).get("design"))
    if desc is None:
        return CheckResult(
            family, rule, False, ("witnesses.design is missing or malformed",)
        )
    problems.extend(_domain_problems(data, desc))
    problems.extend(_premise_problems(data, desc))

    derived = _derive(desc, rule)
    if derived is None:
        problems.append(f"could not re-derive {rule} from the description")
    else:
        status, region = derived
        if data["status"] != status:
            problems.append(
                f"status mismatch: certificate says {data['status']!r},"
                f" re-derivation gives {status!r}"
            )
        if data["region"] != region:
            problems.append(
                f"region mismatch: certificate says {data['region']!r},"
                f" re-derivation gives {region!r}"
            )
    return CheckResult(family, rule, not problems, tuple(problems))


def check_certificates(
    items: list[str | dict[str, Any]],
) -> tuple[CheckResult, ...]:
    """Re-validate a batch, preserving order."""
    return tuple(check_certificate(item) for item in items)
