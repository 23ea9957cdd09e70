(** Resource-bounded estimation engine: the degradation ladder.

    Exact BDD probability estimation is worst-case exponential in circuit
    size. The engine makes every estimate terminate inside a configurable
    resource {!budget} by degrading gracefully, one output cone at a time:

    + {b exact} — build each cone's BDDs under a node budget and
      wall-clock deadline ({!Dpa_bdd.Robdd.set_budget});
    + {b reorder} — if a cone blows the budget, dynamically reorder the
      rung-1 node store {e in place} ({!Dpa_bdd.Sift}) — already-built
      cones survive bitwise, aborted prefixes compact, garbage is retired
      back to the budget — and retry the failed cones in the same build;
    + {b simulate} — cones still unbuilt are priced from a Monte-Carlo run
      of the domino simulator ({!Dpa_sim.Simulator.measure}) with a sample
      count sized from the requested confidence interval, merged with the
      exact probabilities of everything that {e did} build.

    Every answer carries a {!degradation} report saying which rung priced
    which cone, so callers (and the CLI) can surface approximation
    honestly. With [fallback = No_fallback] (or [Reorder_retry] when the
    retry is insufficient) the engine raises a typed
    {!Dpa_util.Dpa_error.Error} with a [Budget] payload instead of
    degrading — never a bare [Failure]. *)

(** What to do when the exact build exhausts its budget. Each level
    includes the previous: [Simulate] still tries exact, then reorder,
    then simulation. *)
type fallback = No_fallback | Reorder_retry | Simulate

type budget = {
  max_bdd_nodes : int option;
      (** per-cone node headroom: each cone may intern this many new nodes
          on top of its shard manager's live size; [None] = unlimited *)
  deadline_s : float option;
      (** wall-clock seconds for the whole estimate; [None] = unlimited *)
  fallback : fallback;
  sim_halfwidth : float;
      (** target 95%-style confidence-interval half-width on simulated
          probabilities; sizes the Monte-Carlo sample count *)
  sim_confidence : float;  (** confidence level for [sim_halfwidth] *)
  sim_seed : int;
      (** deterministic simulator seed — identical inputs give identical
          fallback numbers, which keeps greedy phase search monotone *)
  sim_backend : Dpa_sim.Backend.t;
      (** how the Monte-Carlo rung evaluates the netlist; both backends
          are bit-identical for equal seeds ({!Dpa_sim.Backend}), so
          this only trades speed *)
  reorder_passes : int;  (** sift passes of the reorder rung; [0] disables it *)
}

val default_budget : budget
(** Unlimited resources, [Simulate] fallback, 1% half-width at 95%
    confidence, seed 1, the default simulation backend
    ({!Dpa_sim.Backend.default}), 2 sift passes. *)

val bounded :
  ?max_bdd_nodes:int ->
  ?deadline_s:float ->
  ?fallback:fallback ->
  ?sim_backend:Dpa_sim.Backend.t ->
  unit ->
  budget
(** [default_budget] with the given limits installed. *)

val is_unbounded : budget -> bool
(** No node cap and no deadline: every cone builds exactly. *)

val fallback_of_string : string -> fallback option
(** ["none"] | ["reorder"] | ["sim"] (the CLI spelling). *)

val fallback_to_string : fallback -> string

val sim_cycles_of : budget -> int
(** Monte-Carlo sample count implied by [sim_halfwidth]/[sim_confidence]:
    [⌈(z / 2·halfwidth)²⌉] clamped to [1_000 .. 200_000]. *)

val ci_halfwidth_of : budget -> int -> float
(** Worst-case (p = ½) confidence-interval half-width actually achieved by
    a run of the given cycle count. *)

(** {2 Degradation report} *)

(** How one output cone's probabilities were obtained. *)
type cone_method = Exact | Reordered | Simulated

val cone_method_to_string : cone_method -> string
(** ["exact"] | ["reordered"] | ["simulated"] — also the spelling of the
    [method] attribute on [engine.cone.method] trace events. *)

type degradation = {
  methods : cone_method array;  (** per output cone, in output order *)
  bdd_nodes : int;  (** live nodes of every shard manager, summed *)
  reorder_used : bool;  (** the sift rung rescued at least one cone *)
  sim_cycles : int;  (** 0 when no cone needed simulation *)
  ci_halfwidth : float;  (** 0.0 when no cone needed simulation *)
}

val exact_cones : degradation -> int

val reordered_cones : degradation -> int

val simulated_cones : degradation -> int

val all_exact : degradation -> bool

val degradation_to_string : degradation -> string
(** One human-readable line, e.g.
    ["2 exact / 0 reordered / 1 simulated of 3 cones (512 BDD nodes, 9604 sim cycles, ±0.0100 CI)"]. *)

val degradation_label : degradation -> string
(** Compact CSV-friendly label: ["exact"] or ["2ex+0re+1sim"]. *)

(** {2 Estimation} *)

type result = {
  report : Estimate.report;
  degradation : degradation;
}

val estimate :
  ?par:Dpa_util.Par.t ->
  ?budget:budget ->
  ?cancel:Dpa_util.Cancel.t ->
  input_probs:float array ->
  Dpa_domino.Mapped.t ->
  result
(** Runs the ladder on one mapped block. There is one ladder: output
    cones are partitioned into at most 16 shards by a greedy overlap
    heuristic (big cones first, each joining the shard whose accumulated
    support it overlaps most, under a soft load cap; a block under 400
    nodes is one shard), and each shard builds {e all} its cones in one
    private manager sized from the node union of its cones, so
    cross-cone sharing survives inside a shard. Each cone builds under
    the budget as {e headroom}: it may intern up to [max_bdd_nodes] new
    nodes on top of its shard manager's live size. Exhaustion is
    contained per cone: sibling cones keep the nodes interned before the
    blow-up and their probabilities stay exact. Unbudgeted, every
    probability and power is bitwise equal to {!Estimate.of_mapped}
    (ROBDD canonicity).

    With [par], shards (and simulated cones) run across the pool's
    domains; without it they run in order on the calling domain, outside
    any [Par] region, so a caller that is itself a pool task can still
    estimate. The plan is a pure function of the cones, never of the
    pool, so probabilities, powers {e and} the [bdd_nodes] complexity
    metric are bit-identical with no pool and at every [jobs] count
    (Monte-Carlo streams are index-derived via {!Dpa_util.Rng.derive}).

    [cancel] is a cooperative-cancellation token, orthogonal to the
    budget: it is installed on every manager the ladder creates, polled
    between rungs and inside the Monte-Carlo loops, and firing raises
    [Dpa_error.Error (Cancelled _)] — a hard stop the ladder propagates
    instead of degrading, so a cancelled estimate never falls back. The
    checks never change numeric results.

    @raise Dpa_util.Dpa_error.Error with a [Budget] payload when cones
    remain unpriced and [budget.fallback] forbids simulation. *)

val node_probabilities :
  ?budget:budget ->
  ?cancel:Dpa_util.Cancel.t ->
  input_probs:float array ->
  Dpa_logic.Netlist.t ->
  float array * cone_method
(** Signal probability of every node of a {e netlist} (no domino mapping)
    under the same ladder — the budgeted replacement for
    {!Dpa_bdd.Build.probabilities} used for phase-search base
    probabilities. The netlist has a single shared build, so the method is
    whole-netlist rather than per-cone; the simulation rung evaluates the
    netlist directly under Bernoulli input vectors.

    @raise Dpa_util.Dpa_error.Error as {!estimate}. *)
