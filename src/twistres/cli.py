"""Batch driver: parse a declarative problem file, run the requested
constructions, checks, and dimension computations, and emit a structured
report to standard output.

Problem files are UTF-8 YAML mappings, without aliases, with the
following keys (all optional except, in practice, ``tasks``):

``field``
    Characteristic of the ground field: 0 (rationals) or a prime.
``seed``
    Integer seed for the randomized sampling inside the hexagon and
    action checks.  Reports are byte-identical for identical
    (config, seed) pairs.
``cutoff``
    Default truncation window for windowed checks (>= 1).
``algebras``
    Named blocks.  ``kind`` selects the shape:

    * ``polynomial`` with ``generators: [x, y]``;
    * ``cyclic-group`` with ``order: n``;
    * ``iterated-ore`` with ``generators`` and a ``delta`` table
      ``{later-gen: {earlier-gen: "image string"}}`` -- images are
      linear-combination strings like ``"-1"`` or ``"y"`` or ``"2*z - 1"``
      over the ground field and strictly earlier generators, and the
      table is rejected unless every overlap resolves (PBW);
    * ``twisted-product`` with ``left``/``right`` naming previously
      declared plain blocks and a ``twist`` sub-block whose ``kind`` is
      ``flip``, ``ore`` (with ``delta: {left-gen: "image"}``),
      ``skew-group`` (with ``action: {poly-gen: "image"}`` for the group
      generator), or ``custom`` (with ``table: {"b-mono|a-mono":
      "combination over the product"}`` using ``⊗`` or ``*`` between the
      factors).
``resolutions``
    Named requests ``{algebra: NAME, family: FAMILY, ...}`` where family
    is ``bar``, ``reduced-bar``, ``poly-koszul``, ``ore-koszul``,
    ``one-sided-koszul``, or ``cyclic-periodic``; options ``n_max``
    (bar/periodic depth), ``middle_cutoff`` (bar), ``bimodule`` (wedge
    families; default true), ``cutoff`` (verification window), and
    ``lift: {twist: PRODUCT-NAME, side: left|right}``.
``tasks``
    List of task names or ``{task: NAME, ...option...}`` mappings:

    * ``check-twist`` -- hexagon identity for one (``algebra: NAME``) or
      every twisted-product block; options ``degree_bound``, ``samples``;
    * ``verify-resolution`` -- symbolic d.d = 0 plus windowed exactness
      for one (``resolution: NAME``) or every request; option ``cutoff``;
    * ``twisted-product`` -- build the total complex for ``algebra: NAME``
      and check sign anticommutation, d.d = 0, the attached factor lifts,
      the stage-0 identification, and windowed exactness; options
      ``cutoff``, ``n_max`` (periodic factor depth), ``left``/``right``
      (explicit resolution names), ``sided: one`` (resolve the ground
      field through the one-variable extension instead of the bimodule);
    * ``hochschild`` -- windowed cohomology dimensions for ``resolution:
      NAME`` or ``product: NAME``; options ``cutoff``, ``n_top``,
      ``coeff`` (``self`` or ``ground``);
    * ``tor-ext`` -- ground-field collapse dimensions both ways round for
      ``resolution: NAME`` (one-sided) or ``product: NAME``; option
      ``n_top``;
    * ``preset:NAME`` -- a canned pipeline; see ``preset_names()``.

Task failures short-circuit dependents: a task whose referenced twist,
resolution, or product already failed is reported as ``skipped``.  Run
errors surface as failed task records, never process crashes.  The exit
code is 0 iff every record is ``pass`` or ``unstable``.

Renderings: ``--format text`` includes per-task wall times; ``--format
json`` omits timings so identical (config, seed) pairs give
byte-identical output.
"""

import argparse
import json
import sys
import time

from . import __version__
from .kernel import field_of_characteristic
from .algebra import (
    CYCLIC_GROUP, ITERATED_ORE, POLYNOMIAL, AlgebraError,
    cyclic_group_algebra, delta_table_from_strings, iterated_ore_algebra,
    parse_element, polynomial_algebra,
)
from .twist import (
    TwistError, check_hexagon, custom_twist, flip_twist, ore_twist,
    skew_group_twist,
)
from .complex import compose_check, exactness_report, truncate
from .resolutions import (
    ResolutionError, bar, check_lift_chain_map, check_lift_compat,
    cyclic_periodic, lift_twist, one_sided_koszul_kx, ore_koszul,
    poly_koszul,
)
from .twistprod import (
    bimodule_twisted_product, kunneth_degree0_check, ore_module_resolution,
)
from .homology import (
    ext_over_augmented, hochschild_cohomology, tor_over_augmented,
)

TASK_NAMES = ("check-twist", "verify-resolution", "twisted-product",
              "hochschild", "tor-ext")
FAMILIES = ("bar", "reduced-bar", "poly-koszul", "ore-koszul",
            "one-sided-koszul", "cyclic-periodic")
TWIST_KINDS = ("flip", "ore", "skew-group", "custom")


class ConfigError(Exception):
    """Problem-file rejection, with the source position when known and the
    config path (tuple of keys/indices) of the rejected value."""

    def __init__(self, message, line=None, column=None, path=()):
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)
        self.line = line
        self.column = column
        self.path = path


# ---------------------------------------------------------------------------
# parsing: YAML -> plain data with source marks -> validated ProblemConfig


class _Marks:
    """Maps config paths (tuples of keys/indices) to (line, column)."""

    def __init__(self, table):
        self.table = table

    def error(self, message, *path):
        line, column = self.table.get(tuple(path), (None, None))
        return ConfigError(message, line, column, tuple(path))


def _load_problem(text):
    """YAML text -> (plain data, source marks); raise ConfigError with the
    source line and column unless it is a mapping (or empty) of plain
    values without aliases.

    PyYAML is imported here, the one place that reads a problem file, so
    library imports and ``--task`` runs never load it."""
    import yaml
    from yaml.constructor import SafeConstructor

    scalars = SafeConstructor()
    marks = {}
    seen = set()  # ids of the nodes walked: an alias reaches one again

    def visit(node):
        line = node.start_mark.line + 1
        column = node.start_mark.column + 1
        if id(node) in seen:
            raise ConfigError("this node is reached again through an alias "
                              "(aliases are not supported)", line, column)
        seen.add(id(node))
        return line, column

    def scalar(node, line, column):
        try:
            return scalars.construct_object(node)
        except (AttributeError, KeyError, ValueError):
            # SafeConstructor's readers of tagged scalars raise these
            raise ConfigError("cannot read %r as %s" % (node.value, node.tag),
                              line, column) from None

    def plain_data(node, path):
        line, column = marks[path] = visit(node)
        if isinstance(node, yaml.MappingNode):
            out = {}
            for key_node, value_node in node.value:
                key_at = visit(key_node)
                if not isinstance(key_node, yaml.ScalarNode):
                    raise ConfigError("mapping keys must be scalars", *key_at)
                key = scalar(key_node, *key_at)
                out[key] = plain_data(value_node, path + (key,))
            return out
        if isinstance(node, yaml.SequenceNode):
            return [plain_data(child, path + (i,))
                    for i, child in enumerate(node.value)]
        return scalar(node, line, column)

    try:
        node = yaml.compose(text, Loader=yaml.SafeLoader)
        if node is None:
            return {}, marks
        data = plain_data(node, ())
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        line = mark.line + 1 if mark else None
        column = mark.column + 1 if mark else None
        raise ConfigError(exc.problem or str(exc), line, column) from None
    except yaml.reader.ReaderError as exc:
        before = text[:exc.position]
        raise ConfigError("unacceptable character #x%04x: %s"
                          % (exc.character, exc.reason),
                          before.count("\n") + 1,
                          exc.position - before.rfind("\n")) from None
    except RecursionError:
        raise ConfigError("the problem file nests too deeply") from None
    if not isinstance(data, dict):
        raise ConfigError("the problem file must be a mapping", 1, 1)
    return data, marks


def parse_config(text):
    """Parse and validate a problem file; raise ConfigError with the
    source line and column on rejection."""
    return config_from_data(*_load_problem(text))


class _ProductEntry:
    """A twisted-product algebra block: the twist plus its factor names."""

    def __init__(self, name, twist, left, right):
        self.name = name
        self.twist = twist
        self.left = left
        self.right = right


class ProblemConfig:
    def __init__(self):
        self.characteristic = 0
        self.field = field_of_characteristic(0)
        self.seed = 0
        self.cutoff = 4
        self.algebras = {}          # name -> AlgebraSpec (plain kinds)
        self.products = {}          # name -> _ProductEntry
        self.resolutions = {}       # name -> ResolutionBundle
        self.resolution_cutoffs = {}
        self.tasks = []             # normalized {"task": ..., options}
        self.echo = {}              # plain data for the report


def _require_int(value, what, err):
    if not isinstance(value, int) or isinstance(value, bool):
        raise err("%s must be an integer, got %r" % (what, value))
    return value


def _identifier(name, what, err):
    if not isinstance(name, str) or not name or not name[0].isalpha() \
            or not all(c.isalnum() or c == "_" for c in name):
        raise err("%s must be an identifier, got %r" % (what, name))
    return name


def _check_keys(block, allowed, what, err):
    for key in block:
        if key not in allowed:
            raise err("unknown key %r in %s (allowed: %s)"
                      % (key, what, ", ".join(sorted(allowed))))


def _single_monomial(text, spec, what, err):
    elem = parse_element(text, spec)
    items = list(elem.terms.items())
    if len(items) != 1 or items[0][1] != spec.field.one:
        raise err("%s must be a single monomial with coefficient 1, got %r"
                  % (what, text))
    return items[0][0]


def _build_twist(name, block, left, right, marks, path):
    def err(msg, *sub):
        return marks.error(msg, *(path + sub))

    _check_keys(block, {"kind", "delta", "action", "table", "base"},
                "twist block of %r" % name, err)
    kind = block.get("kind")
    if kind not in TWIST_KINDS:
        raise err("twist kind must be one of %s, got %r"
                  % (", ".join(TWIST_KINDS), kind), "kind")
    try:
        if kind == "flip":
            return flip_twist(left, right, name=name)
        if kind == "ore":
            table = block.get("delta", {})
            if not isinstance(table, dict):
                raise err("ore twists need a delta mapping", "delta")
            return ore_twist(left, right,
                             {g: str(v) for g, v in table.items()}, name=name)
        if kind == "skew-group":
            action = block.get("action")
            if not isinstance(action, dict):
                raise err("skew-group twists need an action mapping",
                          "action")
            missing = [g for g in right.gens if g not in action]
            if missing:
                raise err("action images missing for generators %r"
                          % (missing,), "action")
            return skew_group_twist(left, right,
                                    {g: str(v) for g, v in action.items()},
                                    name=name)
        table = block.get("table")
        if not isinstance(table, dict) or not table:
            raise err("custom twists need a non-empty table", "table")
        product = flip_twist(left, right).product(name="%s-carrier" % name)
        rule = {}
        for key, value in table.items():
            if not isinstance(key, str) or key.count("|") != 1:
                raise err("custom table keys look like 'b-mono|a-mono', "
                          "got %r" % (key,), "table")
            b_text, a_text = key.split("|")
            b_mono = _single_monomial(b_text, right, "the b side of %r" % key,
                                      err)
            a_mono = _single_monomial(a_text, left, "the a side of %r" % key,
                                      err)
            rule[(b_mono, a_mono)] = dict(
                parse_element(str(value), product).terms)
        base = None
        if block.get("base") == "flip":
            base = flip_twist(left, right)
        elif block.get("base") not in (None, "none"):
            raise err("base must be 'flip' or 'none'", "base")
        return custom_twist(left, right, rule, base=base, name=name)
    except ConfigError:
        raise
    except (AlgebraError, TwistError) as exc:
        raise err("%s" % exc) from None


def _build_algebras(data, marks, config):
    blocks = data.get("algebras", {})
    if not isinstance(blocks, dict):
        raise marks.error("algebras must be a mapping of named blocks",
                          "algebras")
    products = []
    for name, block in blocks.items():
        def err(msg, *sub, _name=name):
            return marks.error(msg, *(("algebras", _name) + sub))

        _identifier(name, "algebra name", err)
        if not isinstance(block, dict):
            raise err("algebra block must be a mapping")
        kind = block.get("kind")
        if kind == POLYNOMIAL:
            _check_keys(block, {"kind", "generators"}, "block %r" % name, err)
            gens = block.get("generators")
            if not isinstance(gens, list) or not gens:
                raise err("polynomial blocks need a generator list",
                          "generators")
            for g in gens:
                _identifier(g, "generator", err)
            if len(set(gens)) != len(gens):
                raise err("duplicate generator names", "generators")
            config.algebras[name] = polynomial_algebra(
                tuple(gens), config.field, name=name)
        elif kind == CYCLIC_GROUP:
            _check_keys(block, {"kind", "order"}, "block %r" % name, err)
            order = _require_int(block.get("order"), "order", err)
            if order < 1:
                raise err("order must be >= 1", "order")
            config.algebras[name] = cyclic_group_algebra(
                order, config.field, name=name)
        elif kind == ITERATED_ORE:
            _check_keys(block, {"kind", "generators", "delta"},
                        "block %r" % name, err)
            gens = block.get("generators")
            if not isinstance(gens, list) or not gens:
                raise err("iterated-ore blocks need a generator list",
                          "generators")
            table = block.get("delta", {})
            if not isinstance(table, dict) or not all(
                    isinstance(row, dict) for row in table.values()):
                raise err("delta must map later generators to "
                          "{earlier generator: image string}", "delta")
            try:
                delta = delta_table_from_strings(
                    tuple(gens),
                    {o: {i: str(v) for i, v in row.items()}
                     for o, row in table.items()},
                    config.field)
                config.algebras[name] = iterated_ore_algebra(
                    tuple(gens), delta, config.field, name=name)
            except AlgebraError as exc:
                raise err("%s" % exc, "delta") from None
        elif kind == "twisted-product":
            products.append((name, block))
        else:
            raise err("kind must be polynomial, cyclic-group, iterated-ore,"
                      " or twisted-product; got %r" % (kind,), "kind")
    for name, block in products:
        def err(msg, *sub, _name=name):
            return marks.error(msg, *(("algebras", _name) + sub))

        _check_keys(block, {"kind", "left", "right", "twist"},
                    "block %r" % name, err)
        for side in ("left", "right"):
            ref = block.get(side)
            if ref not in config.algebras:
                raise err("%s must name a previously declared plain algebra,"
                          " got %r" % (side, ref), side)
        twist_block = block.get("twist")
        if not isinstance(twist_block, dict):
            raise err("twisted-product blocks need a twist mapping", "twist")
        twist = _build_twist(name, twist_block,
                             config.algebras[block["left"]],
                             config.algebras[block["right"]], marks,
                             ("algebras", name, "twist"))
        config.products[name] = _ProductEntry(name, twist, block["left"],
                                              block["right"])


def _build_resolutions(data, marks, config):
    blocks = data.get("resolutions", {})
    if not isinstance(blocks, dict):
        raise marks.error("resolutions must be a mapping of named requests",
                          "resolutions")
    for name, block in blocks.items():
        def err(msg, *sub, _name=name):
            return marks.error(msg, *(("resolutions", _name) + sub))

        _identifier(name, "resolution name", err)
        if not isinstance(block, dict):
            raise err("resolution request must be a mapping")
        _check_keys(block, {"algebra", "family", "n_max", "middle_cutoff",
                            "bimodule", "cutoff", "lift"},
                    "request %r" % name, err)
        ref = block.get("algebra")
        if ref not in config.algebras:
            raise err("algebra must name a declared plain block, got %r"
                      % (ref,), "algebra")
        spec = config.algebras[ref]
        family = block.get("family")
        if family not in FAMILIES:
            raise err("family must be one of %s, got %r"
                      % (", ".join(FAMILIES), family), "family")
        bimodule = block.get("bimodule", True)
        if not isinstance(bimodule, bool):
            raise err("bimodule must be true or false", "bimodule")
        try:
            if family in ("bar", "reduced-bar"):
                n_max = _require_int(block.get("n_max", 3), "n_max", err)
                middle = block.get("middle_cutoff")
                if middle is not None:
                    middle = _require_int(middle, "middle_cutoff", err)
                bundle = bar(spec, n_max, middle_cutoff=middle,
                             reduced=family == "reduced-bar")
            elif family == "poly-koszul":
                bundle = poly_koszul(spec, bimodule=bimodule)
            elif family == "ore-koszul":
                bundle = ore_koszul(spec, bimodule=bimodule)
            elif family == "one-sided-koszul":
                bundle = one_sided_koszul_kx(spec)
            else:
                n_max = _require_int(block.get("n_max", 4), "n_max", err)
                bundle = cyclic_periodic(spec.order, n_max, spec=spec)
        except (AlgebraError, ResolutionError) as exc:
            raise err("%s" % exc) from None
        lift = block.get("lift")
        if lift is not None:
            _check_keys(lift, {"twist", "side"}, "lift of %r" % name, err)
            entry = config.products.get(lift.get("twist"))
            if entry is None:
                raise err("lift.twist must name a twisted-product block",
                          "lift", "twist")
            side = lift.get("side", "left")
            try:
                bundle = lift_twist(bundle, entry.twist, side=side)
            except ResolutionError as exc:
                raise err("%s" % exc, "lift") from None
        config.resolutions[name] = bundle
        if "cutoff" in block:
            cutoff = _require_int(block["cutoff"], "cutoff", err)
            if cutoff < 1:
                raise err("cutoff must be >= 1", "cutoff")
            config.resolution_cutoffs[name] = cutoff


def _normalize_tasks(data, marks, config):
    entries = data.get("tasks", [])
    if not isinstance(entries, list):
        raise marks.error("tasks must be a list", "tasks")
    for i, entry in enumerate(entries):
        def err(msg, *sub, _i=i):
            return marks.error(msg, *(("tasks", _i) + sub))

        # a bare name's mark is the entry's own
        name_at = () if isinstance(entry, str) else ("task",)
        if isinstance(entry, str):
            entry = {"task": entry}
        if not isinstance(entry, dict) or "task" not in entry:
            raise err("each task is a name or a mapping with a 'task' key")
        name = entry["task"]
        if isinstance(name, str) and name.startswith("preset:"):
            preset = name[len("preset:"):]
            if preset not in _PRESETS:
                raise err("unknown preset %r (known: %s)"
                          % (preset, ", ".join(preset_names())), *name_at)
            _check_keys(entry, {"task"}, "preset task", err)
            config.tasks.append({"task": name})
            continue
        if name not in TASK_NAMES:
            raise err("unknown task %r (known: %s and preset:<name>)"
                      % (name, ", ".join(TASK_NAMES)), *name_at)
        task = dict(entry)
        for key in ("cutoff", "n_max", "n_top", "degree_bound", "samples"):
            if key in task:
                value = _require_int(task[key], key, err)
                if key in ("cutoff", "degree_bound") and value < 1:
                    raise err("%s must be >= 1" % key, key)
                if value < 0:
                    raise err("%s must be >= 0" % key, key)
        if name == "check-twist":
            _check_keys(task, {"task", "algebra", "degree_bound", "samples"},
                        "check-twist task", err)
            ref = task.get("algebra")
            if ref is not None and ref not in config.products:
                raise err("algebra must name a twisted-product block, got %r"
                          % (ref,), "algebra")
            if ref is None and not config.products:
                raise err("check-twist needs a twisted-product block")
        elif name == "verify-resolution":
            _check_keys(task, {"task", "resolution", "cutoff"},
                        "verify-resolution task", err)
            ref = task.get("resolution")
            if ref is not None and ref not in config.resolutions:
                raise err("resolution must name a declared request, got %r"
                          % (ref,), "resolution")
            if ref is None and not config.resolutions:
                raise err("verify-resolution needs a resolution request")
        elif name == "twisted-product":
            _check_keys(task, {"task", "algebra", "left", "right", "sided",
                               "cutoff", "n_max"}, "twisted-product task",
                        err)
            if task.get("algebra") not in config.products:
                raise err("twisted-product tasks need algebra: "
                          "<twisted-product block>", "algebra")
            for side in ("left", "right"):
                ref = task.get(side)
                if ref is not None and ref not in config.resolutions:
                    raise err("%s must name a declared resolution, got %r"
                              % (side, ref), side)
            if task.get("sided") not in (None, "one"):
                raise err("sided must be 'one' when given", "sided")
        elif name == "hochschild":
            _check_keys(task, {"task", "resolution", "product", "cutoff",
                               "n_top", "coeff"}, "hochschild task", err)
            _check_source_ref(task, config, err)
            if task.get("coeff", "self") not in ("self", "ground"):
                raise err("coeff must be 'self' or 'ground'", "coeff")
        else:
            _check_keys(task, {"task", "resolution", "product", "n_top"},
                        "tor-ext task", err)
            _check_source_ref(task, config, err)
        config.tasks.append(task)


def _check_source_ref(task, config, err):
    res, prod = task.get("resolution"), task.get("product")
    if (res is None) == (prod is None):
        raise err("give exactly one of resolution: NAME or product: NAME")
    if res is not None and res not in config.resolutions:
        raise err("resolution must name a declared request, got %r" % (res,),
                  "resolution")
    if prod is not None and prod not in config.products:
        raise err("product must name a twisted-product block, got %r"
                  % (prod,), "product")


def config_from_data(data, mark_table=None):
    """Validate plain parsed data (see parse_config) into a ProblemConfig."""
    marks = _Marks(mark_table or {})
    config = ProblemConfig()
    if not isinstance(data, dict):
        raise marks.error("the problem file must be a mapping")
    _check_keys(data, {"field", "seed", "cutoff", "algebras", "resolutions",
                       "tasks"}, "the problem file",
                lambda msg, *p: marks.error(msg, *p))
    ch = data.get("field", 0)
    _require_int(ch, "field", lambda msg, *p: marks.error(msg, "field"))
    try:
        config.field = field_of_characteristic(ch)
    except ValueError:
        raise marks.error("field characteristic must be 0 or a prime, got %r"
                          % (ch,), "field") from None
    config.characteristic = ch
    config.seed = _require_int(data.get("seed", 0), "seed",
                               lambda msg, *p: marks.error(msg, "seed"))
    cutoff = _require_int(data.get("cutoff", 4), "cutoff",
                          lambda msg, *p: marks.error(msg, "cutoff"))
    if cutoff < 1:
        raise marks.error("cutoff must be >= 1", "cutoff")
    config.cutoff = cutoff
    _build_algebras(data, marks, config)
    _build_resolutions(data, marks, config)
    _normalize_tasks(data, marks, config)
    config.echo = {
        "field": config.characteristic,
        "seed": config.seed,
        "cutoff": config.cutoff,
        "algebras": data.get("algebras", {}),
        "resolutions": data.get("resolutions", {}),
        "tasks": [dict(t) for t in config.tasks],
    }
    return config


# ---------------------------------------------------------------------------
# reports


class TaskRecord:
    def __init__(self, task, target):
        self.task = task
        self.target = target
        self.status = "pass"
        self.detail = ""
        self.violations = []
        self.dims = []          # rows {"n", "degree", "dim", "stable"}
        self.elapsed = 0.0

    @property
    def ok(self):
        return self.status in ("pass", "unstable")

    def check(self, rep):
        """Fold a check report (a CheckReport or a data report with
        .passed) in; only a CheckReport carries violations, of which the
        first five are kept."""
        self.detail = "%s; %s" % (self.detail, rep) if self.detail \
            else "%s" % (rep,)
        bad = getattr(rep, "violations", [])
        for item in bad[:5]:
            self.violations.append(_format_violation(item))
        if len(bad) > 5:
            self.violations.append("... %d more" % (len(bad) - 5))
        if not rep.passed:
            self.status = "fail"

    def as_data(self):
        return {
            "task": self.task,
            "target": self.target,
            "status": self.status,
            "detail": self.detail,
            "violations": list(self.violations),
            "dims": [dict(row) for row in self.dims],
        }


def _format_violation(item):
    if isinstance(item, dict):
        return "; ".join("%s=%s" % (k, item[k]) for k in sorted(item))
    if isinstance(item, tuple):
        return " / ".join(str(part) for part in item)
    return str(item)


class Report:
    def __init__(self, config):
        self.config = config
        self.records = []

    @property
    def overall(self):
        if all(rec.ok for rec in self.records):
            if any(rec.status == "unstable" for rec in self.records):
                return "unstable"
            return "pass"
        return "fail"

    @property
    def exit_code(self):
        return 0 if all(rec.ok for rec in self.records) else 1

    def as_data(self):
        return {
            "version": __version__,
            "characteristic": self.config.characteristic,
            "seed": self.config.seed,
            "overall": self.overall,
            "exit_code": self.exit_code,
            "records": [rec.as_data() for rec in self.records],
            "config": self.config.echo,
        }

    def render_json(self):
        return json.dumps(self.as_data(), indent=2, sort_keys=True) + "\n"

    def render_text(self):
        lines = ["twistres %s report -- characteristic %d, seed %d"
                 % (__version__, self.config.characteristic,
                    self.config.seed)]
        for rec in self.records:
            lines.append("[%-8s] %-44s %6.2fs  %s"
                         % (rec.status, "%s[%s]" % (rec.task, rec.target),
                            rec.elapsed, rec.detail))
            for text in rec.violations:
                lines.append("            ! %s" % text)
            if rec.dims:
                lines.append("            n   degree  dim  stable")
                for row in rec.dims:
                    degree = "-" if row["degree"] is None else row["degree"]
                    lines.append("            %-3d %-7s %-4d %s"
                                 % (row["n"], degree, row["dim"],
                                    "yes" if row["stable"] else "NO"))
        lines.append("overall: %s (exit %d)" % (self.overall, self.exit_code))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# task execution


def _execute(report, health, task, target, deps, body):
    rec = TaskRecord(task, target)
    failed = [d for d in deps if health.get(d) is False]
    if failed:
        rec.status = "skipped"
        rec.detail = "dependency failed: %s" % ", ".join(failed)
    else:
        start = time.perf_counter()
        try:
            body(rec)
        except Exception as exc:  # errors become failed records, not crashes
            rec.status = "fail"
            rec.detail = ("%s; " % rec.detail if rec.detail else "") + \
                "%s: %s" % (type(exc).__name__, exc)
        rec.elapsed = time.perf_counter() - start
    report.records.append(rec)
    return rec


def _dim_rows(rec, dims, stable=None, per_degree=None):
    for n in sorted(dims):
        rec.dims.append({"n": n, "degree": None, "dim": dims[n],
                         "stable": True if stable is None else stable[n]})
    for key in sorted(per_degree or ()):
        n, t = key
        rec.dims.append({"n": n, "degree": t, "dim": per_degree[key],
                         "stable": True})


def _factor_bundle(entry, side, task, config):
    """The default resolution of one product factor, lifted through the
    twist: wedge families for polynomial factors, the two-periodic family
    for cyclic-group factors."""
    name = task.get(side)
    if name is not None:
        return lift_twist(config.resolutions[name], entry.twist, side=side)
    spec = entry.twist.a_spec if side == "left" else entry.twist.b_spec
    if spec.variant == POLYNOMIAL:
        bundle = poly_koszul(spec)
    elif spec.variant == CYCLIC_GROUP:
        bundle = cyclic_periodic(spec.order, task.get("n_max", 4), spec=spec)
    else:
        raise ResolutionError(
            "no default resolution for a %s factor; give %s: "
            "<resolution name>" % (spec.variant, side))
    return lift_twist(bundle, entry.twist, side=side)


def _build_total(entry, task, config):
    if task.get("sided") == "one":
        base = one_sided_koszul_kx(entry.twist.a_spec)
        return ore_module_resolution(base, entry.twist,
                                     x_name=entry.twist.b_spec.gens[0])
    pm = _factor_bundle(entry, "left", task, config)
    pn = _factor_bundle(entry, "right", task, config)
    return bimodule_twisted_product(pm, pn, entry.twist, name=entry.name)


def _run_check_twist(config, report, health, task):
    names = [task["algebra"]] if task.get("algebra") else \
        list(config.products)
    for name in names:
        entry = config.products[name]

        def body(rec, entry=entry):
            rep = check_hexagon(entry.twist,
                                task.get("degree_bound", 3),
                                sample_count=task.get("samples", 200),
                                seed=config.seed)
            rec.check(rep)

        rec = _execute(report, health, "check-twist", name, (), body)
        health["twist:%s" % name] = rec.ok


def _run_verify_resolution(config, report, health, task):
    names = [task["resolution"]] if task.get("resolution") else \
        list(config.resolutions)
    for name in names:
        bundle = config.resolutions[name]
        cutoff = task.get("cutoff", config.resolution_cutoffs.get(
            name, config.cutoff))

        def body(rec, bundle=bundle, cutoff=cutoff):
            rec.check(compose_check(bundle.complex))
            rec.check(exactness_report(bundle.complex, cutoff))
            if getattr(bundle, "lifts", None):
                rec.check(check_lift_chain_map(bundle, 2))
                for compat in check_lift_compat(bundle, 2).values():
                    rec.check(compat)

        rec = _execute(report, health, "verify-resolution", name, (), body)
        health["res:%s" % name] = rec.ok


def _run_twisted_product(config, report, health, task, totals):
    name = task["algebra"]
    entry = config.products[name]
    cutoff = task.get("cutoff", config.cutoff)
    deps = ["twist:%s" % name]
    deps += ["res:%s" % task[s] for s in ("left", "right") if task.get(s)]

    def body(rec):
        tc = _build_total(entry, task, config)
        totals[name] = tc
        rec.check(tc.bicomplex.anticommute_report())
        rec.check(compose_check(tc.complex))
        for bundle in (tc.bicomplex.pm, tc.bicomplex.pn):
            if getattr(bundle, "lifts", None):
                rec.check(check_lift_chain_map(bundle, 2))
                for compat in check_lift_compat(bundle, 2).values():
                    rec.check(compat)
        if getattr(tc, "ore_form", None) is not None:
            rec.check(tc.ore_form.roundtrip_report(2))
        # one truncation serves both checks when the cutoff is at most 4
        tr = truncate(tc.complex, min(cutoff, 4))
        rec.check(kunneth_degree0_check(tc, tr))
        if cutoff > 4:
            tr = truncate(tc.complex, cutoff)
        rec.check(tr.exactness())

    rec = _execute(report, health, "twisted-product", name, deps, body)
    health["product:%s" % name] = rec.ok


def _source_ref(task):
    if task.get("resolution"):
        return "res", task["resolution"]
    return "product", task["product"]


def _get_source(task, config, totals):
    kind, name = _source_ref(task)
    if kind == "res":
        return config.resolutions[name]
    if name not in totals:
        totals[name] = _build_total(config.products[name], task, config)
    return totals[name]


def _run_hochschild(config, report, health, task, totals):
    kind, target = _source_ref(task)

    def body(rec):
        source = _get_source(task, config, totals)
        rep = hochschild_cohomology(source,
                                    n_top=task.get("n_top"),
                                    cutoff=task.get("cutoff", config.cutoff),
                                    coeff=task.get("coeff", "self"))
        rec.detail = "%s" % (rep,)
        _dim_rows(rec, rep.dims, rep.stable, rep.per_degree)
        if not rep.all_stable:
            rec.status = "unstable"

    _execute(report, health, "hochschild", target,
             ("%s:%s" % (kind, target),), body)


def _run_tor_ext(config, report, health, task, totals):
    kind, target = _source_ref(task)

    def body(rec):
        source = _get_source(task, config, totals)
        tor = tor_over_augmented(source, n_top=task.get("n_top"))
        ext = ext_over_augmented(source, n_top=task.get("n_top"))
        rec.detail = "tor=%r ext=%r" % (tor, ext)
        _dim_rows(rec, dict(enumerate(tor)))
        if tor != ext:
            rec.status = "fail"
            rec.violations.append("transposed collapse disagrees: "
                                  "tor=%r ext=%r" % (tor, ext))

    _execute(report, health, "tor-ext", target,
             ("%s:%s" % (kind, target),), body)


def run(config):
    """Execute the task list in order; every outcome is a task record."""
    report = Report(config)
    health = {}
    totals = {}
    for task in config.tasks:
        name = task["task"]
        if name.startswith("preset:"):
            _run_preset(name[len("preset:"):], config, report)
        elif name == "check-twist":
            _run_check_twist(config, report, health, task)
        elif name == "verify-resolution":
            _run_verify_resolution(config, report, health, task)
        elif name == "twisted-product":
            _run_twisted_product(config, report, health, task, totals)
        elif name == "hochschild":
            _run_hochschild(config, report, health, task, totals)
        else:
            _run_tor_ext(config, report, health, task, totals)
    return report


# ---------------------------------------------------------------------------
# presets: one canned pipeline per worked example


def _weyl_preset(n):
    if n == 1:
        algebras = {
            "A": {"kind": "polynomial", "generators": ["y"]},
            "B": {"kind": "polynomial", "generators": ["x"]},
            "W": {"kind": "twisted-product", "left": "A", "right": "B",
                  "twist": {"kind": "ore", "delta": {"y": "-1"}}},
            "Wore": {"kind": "iterated-ore", "generators": ["x", "y"],
                     "delta": {"y": {"x": "-1"}}},
        }
        return {
            "field": 0, "cutoff": 6,
            "algebras": algebras,
            "resolutions": {"PW": {"algebra": "Wore", "family": "ore-koszul",
                                   "cutoff": 6}},
            "tasks": ["check-twist", "verify-resolution",
                      {"task": "twisted-product", "algebra": "W",
                       "cutoff": 6},
                      {"task": "hochschild", "resolution": "PW",
                       "cutoff": 8, "n_top": 2}],
        }
    gens = ["x1", "x2", "y1", "y2"]
    return {
        "field": 0, "cutoff": 3,
        "algebras": {"W2": {"kind": "iterated-ore", "generators": gens,
                            "delta": {"y1": {"x1": "-1"},
                                      "y2": {"x2": "-1"}}}},
        "resolutions": {"PW2": {"algebra": "W2", "family": "ore-koszul",
                                "cutoff": 3}},
        "tasks": ["verify-resolution"],
    }


def _skew_preset(p):
    return {
        "field": p, "cutoff": 4 if p == 3 else 3,
        "algebras": {
            "G": {"kind": "cyclic-group", "order": p},
            "S": {"kind": "polynomial", "generators": ["x", "y"]},
            "P": {"kind": "twisted-product", "left": "G", "right": "S",
                  "twist": {"kind": "skew-group",
                            "action": {"x": "x", "y": "x + y"}}},
        },
        "tasks": ["check-twist",
                  {"task": "twisted-product", "algebra": "P", "n_max": 4,
                   "cutoff": 4 if p == 3 else 3}],
    }


def _solvable_preset():
    return {
        "field": 0, "cutoff": 6,
        "algebras": {
            "A": {"kind": "polynomial", "generators": ["y"]},
            "B": {"kind": "polynomial", "generators": ["x"]},
            "U": {"kind": "twisted-product", "left": "A", "right": "B",
                  "twist": {"kind": "ore", "delta": {"y": "y"}}},
            "Usolv": {"kind": "iterated-ore", "generators": ["y", "x"],
                      "delta": {"x": {"y": "y"}}},
        },
        "resolutions": {"CE": {"algebra": "Usolv", "family": "ore-koszul",
                               "bimodule": False, "cutoff": 5}},
        "tasks": ["check-twist", "verify-resolution",
                  {"task": "twisted-product", "algebra": "U", "sided": "one",
                   "cutoff": 6},
                  {"task": "tor-ext", "product": "U"},
                  {"task": "tor-ext", "resolution": "CE"}],
    }


def _heisenberg_preset():
    return {
        "field": 0,
        "algebras": {"H": {"kind": "iterated-ore",
                           "generators": ["z", "y", "x"],
                           "delta": {"x": {"y": "z"}}}},
        "resolutions": {"CE": {"algebra": "H", "family": "ore-koszul",
                               "bimodule": False, "cutoff": 5}},
        "tasks": ["verify-resolution", {"task": "tor-ext",
                                        "resolution": "CE"}],
    }


def _cyclic_preset():
    return {
        "field": 3,
        "algebras": {"G": {"kind": "cyclic-group", "order": 3}},
        "resolutions": {"PG": {"algebra": "G", "family": "cyclic-periodic",
                               "n_max": 5, "cutoff": 4}},
        "tasks": ["verify-resolution",
                  {"task": "hochschild", "resolution": "PG", "cutoff": 2},
                  {"task": "hochschild", "resolution": "PG", "cutoff": 2,
                   "coeff": "ground"}],
    }


_PRESETS = {
    "weyl": lambda: _weyl_preset(1),
    "weyl-1": lambda: _weyl_preset(1),
    "weyl-2": lambda: _weyl_preset(2),
    "skew-p2": lambda: _skew_preset(2),
    "skew-p3": lambda: _skew_preset(3),
    "ue-solvable-2dim": _solvable_preset,
    "heisenberg": _heisenberg_preset,
    "cyclic-p": _cyclic_preset,
    "lie-sl2-excluded": None,  # scope guard; handled in _run_preset
}


def preset_names():
    return sorted(_PRESETS)


def _run_preset(name, config, report):
    prefix = "preset:%s" % name
    if name == "lie-sl2-excluded":
        rec = TaskRecord(prefix, "sl2")
        rec.status = "fail"
        start = time.perf_counter()
        try:
            delta = delta_table_from_strings(
                ("h", "e", "f"),
                {"e": {"h": "-2*e"}, "f": {"h": "2*f", "e": "h"}},
                config.field)
            iterated_ore_algebra(("h", "e", "f"), delta, config.field)
            rec.detail = "expected the rewriting table to be rejected"
        except AlgebraError as exc:
            rec.detail = ("out of scope: no generator ordering makes every "
                          "bracket image a constant plus earlier generators "
                          "(%s)" % exc)
        rec.elapsed = time.perf_counter() - start
        report.records.append(rec)
        return
    sub = config_from_data(dict(_PRESETS[name](), seed=config.seed))
    for rec in run(sub).records:
        rec.task = "%s/%s" % (prefix, rec.task)
        report.records.append(rec)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="twistres",
        description="Check twisting maps, resolutions, and twisted-product "
                    "complexes, and compute cohomology dimension tables, "
                    "from a declarative problem file.")
    parser.add_argument("--input", metavar="PATH",
                        help="problem file (YAML; see the module docs)")
    parser.add_argument("--task", metavar="NAME", action="append",
                        help="run this task instead of the file's task list "
                             "(repeatable; e.g. preset:weyl)")
    parser.add_argument("--cutoff", type=int,
                        help="override the default truncation window")
    parser.add_argument("--seed", type=int,
                        help="override the sampling seed")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report rendering (default: text)")
    args = parser.parse_args(argv)
    if not args.input and not args.task:
        parser.error("give --input PATH and/or --task NAME")

    data, marks = {}, {}
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print("twistres: %s" % exc, file=sys.stderr)
            return 2
        except UnicodeDecodeError as exc:
            print("twistres: %s: %s" % (args.input, exc), file=sys.stderr)
            return 2
        try:
            data, marks = _load_problem(text)
        except ConfigError as exc:
            print("twistres: %s: %s" % (args.input, exc), file=sys.stderr)
            return 2
    flags = {}  # top-level key -> the flag that overrode it
    if args.task:
        data["tasks"] = list(args.task)
        flags["tasks"] = "--task"
    if args.cutoff is not None:
        data["cutoff"] = args.cutoff
        flags["cutoff"] = "--cutoff"
    if args.seed is not None:
        data["seed"] = args.seed
        flags["seed"] = "--seed"
    # an overridden value has no place in the file: blame its flag
    marks = {path: mark for path, mark in marks.items()
             if not path or path[0] not in flags}
    try:
        config = config_from_data(data, marks)
    except ConfigError as exc:
        source = (flags.get(exc.path[0]) if exc.path else None) \
            or args.input or "<command line>"
        print("twistres: %s: %s" % (source, exc), file=sys.stderr)
        return 2
    report = run(config)
    rendering = report.render_json() if args.format == "json" \
        else report.render_text()
    sys.stdout.write(rendering)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
