"""The line-oriented graph-spec document format.

A document has up to three blocks, in any order after the variables:

* variables - ``var`` opens a block; an optional ``parents`` line declares
  the parent order; one ``p`` line per parent assignment gives
  P(value=1 | parents), bits in parent order::

      var be_fit
        parents lose_weight protein_diet
        p 0 0 = 0.0
        p 0 1 = 0.0
        p 1 0 = 0.0
        p 1 1 = 1.0

* tagging - ``action NAME``, one ``intend NAME TARGET`` per hypothesized
  intended effect, ``policy p_act|p_base|theta VALUE`` for the agent
  parameters, and ``modifier PARENT VALUE FACTOR`` for cause modifiers;
* levers - ``lever TARGET LEVER VALUE`` declares which variable to clamp
  (and to what) in order to neutralize a target effect.

``#`` starts a comment; blank lines separate nothing.  Unknown keywords are
rejected, not ignored.  Parsing is strict: the returned graph always passes
validation, and every semantic violation is reported at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .agent import DEFAULT_P_ACT, DEFAULT_P_BASE, DEFAULT_THETA, AgentPolicy, TeleologicalModel, bind_agent
from .errors import InvalidGraphError, SpecError, TeleoError
from .graph import CausalGraph, Tagging, Variable

_POLICY_KEYS = ("p_act", "p_base", "theta")


@dataclass(frozen=True)
class GraphSpecDocument:
    """Everything a spec file declares: graph, optional tagging and policy,
    and the lever mapping for interference planning."""

    graph: CausalGraph
    tagging: Tagging | None = None
    policy: AgentPolicy | None = None
    levers: dict[str, tuple[str, int]] = field(default_factory=dict)

    def bind(self) -> TeleologicalModel:
        """The teleological model this document describes."""
        if self.tagging is None or self.policy is None:
            raise SpecError("document has no action/intend tagging to bind")
        return bind_agent(self.graph, self.tagging.action, self.policy)


class _VariableBuilder:
    def __init__(self, name: str):
        self.name = name
        self.parents: tuple[str, ...] | None = None
        self.rows: dict[tuple[int, ...], float] = {}

    def build(self) -> Variable:
        return Variable(name=self.name, parents=self.parents or (), cpt=dict(self.rows))


def _parse_bit(token: str, lineno: int, what: str) -> int:
    if token not in ("0", "1"):
        raise SpecError(f"{what} must be 0 or 1, got {token!r}", line=lineno)
    return int(token)


def _parse_prob(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise SpecError(f"malformed probability {token!r}", line=lineno) from None


def parse_graph_spec(text: str) -> GraphSpecDocument:
    """Parse a graph-spec document, validating everything it declares."""
    variables: list[_VariableBuilder] = []
    current: _VariableBuilder | None = None
    action: str | None = None
    intentions: dict[str, int] = {}
    policy_params: dict[str, float] = {}
    modifiers: dict[tuple[str, int], float] = {}
    levers: dict[str, tuple[str, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]

        if keyword == "var":
            if len(args) != 1:
                raise SpecError("var takes exactly one name", line=lineno)
            current = _VariableBuilder(args[0])
            variables.append(current)
        elif keyword == "parents":
            if current is None:
                raise SpecError("parents outside a var block", line=lineno)
            if current.parents is not None:
                raise SpecError(f"{current.name}: parents declared twice", line=lineno)
            if current.rows:
                raise SpecError(f"{current.name}: parents must precede p rows", line=lineno)
            current.parents = tuple(args)
        elif keyword == "p":
            if current is None:
                raise SpecError("p row outside a var block", line=lineno)
            if "=" not in args:
                raise SpecError('p row needs "=", e.g. "p 0 1 = 0.25"', line=lineno)
            eq = args.index("=")
            bits = tuple(_parse_bit(t, lineno, "parent assignment bit") for t in args[:eq])
            rest = args[eq + 1:]
            if len(rest) != 1:
                raise SpecError("p row needs exactly one probability", line=lineno)
            n_parents = len(current.parents or ())
            if len(bits) != n_parents:
                raise SpecError(
                    f"{current.name}: row has {len(bits)} bits for {n_parents} parents",
                    line=lineno,
                )
            if bits in current.rows:
                raise SpecError(f"{current.name}: duplicate row for assignment {bits}", line=lineno)
            current.rows[bits] = _parse_prob(rest[0], lineno)
        elif keyword == "action":
            if len(args) != 1:
                raise SpecError("action takes exactly one name", line=lineno)
            if action is not None:
                raise SpecError("action declared twice", line=lineno)
            action = args[0]
        elif keyword == "intend":
            if len(args) not in (1, 2):
                raise SpecError("intend takes a name and an optional target", line=lineno)
            target = _parse_bit(args[1], lineno, "intend target") if len(args) == 2 else 1
            if args[0] in intentions:
                raise SpecError(f"intend {args[0]!r} declared twice", line=lineno)
            intentions[args[0]] = target
        elif keyword == "policy":
            if len(args) != 2 or args[0] not in _POLICY_KEYS:
                raise SpecError(
                    f"policy takes one of {'/'.join(_POLICY_KEYS)} and a value", line=lineno
                )
            if args[0] in policy_params:
                raise SpecError(f"policy {args[0]} declared twice", line=lineno)
            policy_params[args[0]] = _parse_prob(args[1], lineno)
        elif keyword == "modifier":
            if len(args) != 3:
                raise SpecError("modifier takes parent, value, factor", line=lineno)
            key = (args[0], _parse_bit(args[1], lineno, "modifier value"))
            if key in modifiers:
                raise SpecError(f"modifier for {args[0]}={args[1]} declared twice", line=lineno)
            modifiers[key] = _parse_prob(args[2], lineno)
        elif keyword == "lever":
            if len(args) != 3:
                raise SpecError("lever takes target, lever variable, value", line=lineno)
            if args[0] in levers:
                raise SpecError(f"lever for {args[0]!r} declared twice", line=lineno)
            levers[args[0]] = (args[1], _parse_bit(args[2], lineno, "lever value"))
        else:
            raise SpecError(f"unknown keyword {keyword!r}", line=lineno)

    if not variables:
        raise SpecError("no variables declared")
    graph = CausalGraph.make(b.build() for b in variables)
    problems = graph.validate()

    tagging = None
    policy = None
    tagged = intentions or policy_params or modifiers
    if tagged and action is None:
        problems.append("tagging block has no action line")
    if action is not None:
        tagging = Tagging.make(action, intentions.items())
        if not problems:
            problems.extend(tagging.validate(graph))
        if intentions:
            try:
                policy = AgentPolicy.make(
                    intentions.items(),
                    p_act=policy_params.get("p_act", DEFAULT_P_ACT),
                    p_base=policy_params.get("p_base", DEFAULT_P_BASE),
                    theta=policy_params.get("theta", DEFAULT_THETA),
                    cause_modifiers=modifiers,
                )
                if not problems:  # a policy must bind: its modifiers name parents of the action
                    bind_agent(graph, action, policy)
            except TeleoError as exc:
                problems.append(str(exc))
        elif tagged:
            problems.append("policy parameters require at least one intend line")

    for target, (lever_var, _) in sorted(levers.items()):
        if target not in graph.names:
            problems.append(f"lever target {target!r} is not a declared variable")
        elif lever_var not in graph.names:
            problems.append(f"lever variable {lever_var!r} is not a declared variable")
        elif lever_var != target and lever_var not in graph.parents(target):
            problems.append(
                f"lever variable {lever_var!r} is neither {target!r} itself nor one of its parents"
            )
    if problems:
        raise InvalidGraphError(problems)
    return GraphSpecDocument(graph=graph, tagging=tagging, policy=policy, levers=levers)


def serialize_graph_spec(doc: GraphSpecDocument) -> str:
    """Canonical text for a document; parse -> serialize -> parse is
    the identity on variables, parents, CPT values, tagging, and levers.
    A name with whitespace or "#", which no line carries, is a ``SpecError``."""
    for name in doc.graph.names:
        if "#" in name or any(c.isspace() for c in name):
            raise SpecError(f"variable name {name!r} holds whitespace or '#' and cannot be written")
    lines: list[str] = []
    for var in doc.graph.variables:
        lines.append(f"var {var.name}")
        if var.parents:
            lines.append("  parents " + " ".join(var.parents))
        for key in sorted(var.cpt):
            bits = " ".join(str(b) for b in key)
            sep = f" {bits} " if bits else " "
            lines.append(f"  p{sep}= {var.cpt[key]!r}")
        lines.append("")
    if doc.tagging is not None:
        lines.append(f"action {doc.tagging.action}")
        for name, target in sorted(doc.tagging.intention_hypothesis):
            lines.append(f"intend {name} {target}")
        if doc.policy is not None:
            lines.append(f"policy p_act {doc.policy.p_act!r}")
            lines.append(f"policy p_base {doc.policy.p_base!r}")
            lines.append(f"policy theta {doc.policy.theta!r}")
            for (parent, value), factor in sorted(doc.policy.cause_modifiers.items()):
                lines.append(f"modifier {parent} {value} {factor!r}")
        lines.append("")
    if doc.levers:
        for target, (lever_var, value) in sorted(doc.levers.items()):
            lines.append(f"lever {target} {lever_var} {value}")
        lines.append("")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"
