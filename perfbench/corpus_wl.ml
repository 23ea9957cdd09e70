(* The corpus workloads: a fixed list of circuits swept once, cold, at
   width 1 through the same MA-vs-MP flows as [dominoflow corpus --jobs 1].

   Set-up generates the circuits (repeated, median reported); the timed
   sweep regenerates and runs each circuit exactly as [Corpus.run_spec]
   does, keeping the flow result so the checks can see the MP assignment.
   A traced run then replays every circuit stage by stage with a span
   around each public call, and the replay must agree bit for bit with
   the untraced flow. *)

open Common
module P = Dpa_workload.Profiles
module G = Dpa_workload.Generator
module C = Dpa_workload.Corpus
module Flow = Dpa_core.Flow
module Seq_flow = Dpa_core.Seq_flow
module Engine = Dpa_power.Engine
module Netlist = Dpa_logic.Netlist
module Metrics = Dpa_obs.Metrics

type kind = Ladder | Search

type item = {
  circuit : string;  (** the per-layer row the circuit's time adds to *)
  label : string;  (** the circuit, and its variant when not the first *)
  spec : C.spec;
  manifest : bool;  (** diffable against data/baselines *)
}

(* Seed 1, variant 0 leaves every generator seed as the manifest has it,
   so the sweep is diffable against data/baselines; any other seed or
   variant shifts every generator seed by the same amount (variants step
   by 300, seeds by 1000, so no two collide). *)
let default_seed = 1

(* Generated circuits per spec and run. A corpus_search circuit's cost
   depends on its seed much more than a corpus_ladder one's: industry3
   takes 2.3 s at one seed and 6.6 s at another, and one variant per run
   put the sweep's interquartile spread over ten seeds at 0.15-0.27. Three
   variants average that out. *)
let variants = function Ladder -> 1 | Search -> 3

let reseed ~seed ~variant (p : P.t) =
  let d k = k + (1000 * (seed - default_seed)) + (300 * variant) in
  let shape =
    match p.P.shape with
    | P.Windowed g -> P.Windowed { g with G.seed = d g.G.seed }
    | P.Parity_chain g -> P.Parity_chain { g with G.seed = d g.G.seed }
    | P.Adder g -> P.Adder { g with G.seed = d g.G.seed }
    | P.Multiplier g -> P.Multiplier { g with G.seed = d g.G.seed }
    | P.Controller g -> P.Controller { g with G.seed = d g.G.seed }
  in
  { p with P.shape }

let manifest_item manifest name =
  match C.find_spec manifest name with
  | Some spec -> { circuit = name; label = name; spec; manifest = true }
  | None -> invalid_arg ("no corpus spec " ^ name)

(* parity_smoke under an 8,000-node cap: the phase search's ladder
   exhausts and degrades cones to simulation, while the final pricing
   stays exact *)
let capped_parity =
  let base = manifest_item C.smoke "parity_smoke" in
  {
    circuit = "parity_smoke_capped";
    label = "parity_smoke_capped";
    spec =
      {
        base.spec with
        C.budget =
          Some
            {
              Engine.default_budget with
              Engine.max_bdd_nodes = Some 8_000;
              fallback = Engine.Simulate;
            };
      };
    manifest = false;
  }

let items ~seed kind =
  let base =
    match kind with
    | Ladder ->
      [
        manifest_item C.smoke "mult8";
        manifest_item C.smoke "add4x8";
        manifest_item C.smoke "parity_smoke";
        capped_parity;
      ]
    | Search ->
      [
        manifest_item C.full "industry3";
        manifest_item C.full "ctrl_dense";
        manifest_item C.smoke "apex7";
        manifest_item C.smoke "ctrl_smoke";
      ]
  in
  List.concat_map
    (fun variant ->
      List.map
        (fun it ->
          {
            it with
            label = (if variant = 0 then it.label else Printf.sprintf "%s/v%d" it.label variant);
            spec = { it.spec with C.profile = reseed ~seed ~variant it.spec.C.profile };
            manifest = it.manifest && variant = 0;
          })
        base)
    (List.init (variants kind) Fun.id)

(* ---- one circuit, as Corpus.run_spec runs it ------------------------- *)

type swept = {
  item : item;
  outcome : C.outcome;
  flow : Flow.result;
  ff_probs : float array option;  (** sequential circuits only *)
  flow_s : float;  (** generation + flow, the part the replay mirrors *)
  wall_s : float;  (** everything Corpus.run_spec does *)
}

(* [sweep_one] and [seq_core] are copies of [Corpus.run_spec] and
   [Corpus.seq_core]: [run_spec] returns only the outcome record, and the
   checks need the flow result (the MP assignment and its degradation).
   Keep them in step with [Corpus.run_spec]; at seed 1 the exact diff
   against data/baselines catches a drift in any quality field. *)

(* every flip-flop's D pin becomes a block output of the priced core *)
let seq_core sn =
  let core = Netlist.copy (Dpa_seq.Seq_netlist.comb sn) in
  Array.iteri
    (fun k ff ->
      Netlist.add_output core (Printf.sprintf "ff%d.d" k) ff.Dpa_seq.Seq_netlist.data)
    (Dpa_seq.Seq_netlist.ffs sn);
  core

let config_of par it =
  {
    Flow.default_config with
    Flow.pair_limit = it.spec.C.profile.P.pair_limit;
    budget = it.spec.C.budget;
    par = Some par;
  }

let sweep_one par it =
  let profile = it.spec.C.profile in
  let config = config_of par it in
  let t0 = now_s () in
  let flow, ff_probs, digest, gates, n_ffs, fvs, supervertices, priced_net =
    match P.build profile with
    | P.Comb net ->
      let r = Flow.compare_ma_mp ~config net in
      (r, None, Dpa_logic.Struct_hash.digest net, Netlist.gate_count net, 0, 0, 0, net)
    | P.Seq sn ->
      let r = Seq_flow.compare_ma_mp ~config sn in
      let core = seq_core sn in
      ( r.Seq_flow.comb,
        Some r.Seq_flow.ff_probs,
        Dpa_logic.Struct_hash.digest core,
        Netlist.gate_count core,
        Dpa_seq.Seq_netlist.n_ffs sn,
        List.length r.Seq_flow.fvs,
        r.Seq_flow.supervertices,
        core )
  in
  let flow_s = now_s () -. t0 in
  let mp = flow.Flow.mp and ma = flow.Flow.ma in
  let stats =
    Dpa_synth.Inverterless.stats
      (Dpa_synth.Inverterless.realize (Dpa_synth.Opt.optimize priced_net) mp.Flow.assignment)
  in
  let outcome =
    {
      C.name = profile.P.name;
      family = P.family_name profile.P.family;
      digest;
      gates;
      n_pi = flow.Flow.n_pi;
      n_po = flow.Flow.n_po;
      n_ffs;
      fvs;
      supervertices;
      ma_size = ma.Flow.size;
      ma_power = ma.Flow.power;
      mp_size = mp.Flow.size;
      mp_power = mp.Flow.power;
      mp_phases = Array.length mp.Flow.assignment;
      phase_flips = Dpa_synth.Phase.count_negative mp.Flow.assignment;
      duplicated_gates = stats.Dpa_synth.Inverterless.duplicated_nodes;
      power_saving_pct = flow.Flow.power_saving_pct;
      area_penalty_pct = flow.Flow.area_penalty_pct;
      ladder = Engine.degradation_label mp.Flow.degradation;
      bdd_nodes = mp.Flow.degradation.Engine.bdd_nodes;
      runtime_s = flow_s;
    }
  in
  { item = it; outcome; flow; ff_probs; flow_s; wall_s = now_s () -. t0 }

(* ---- checks (never timed) -------------------------------------------- *)

let baseline_dir = Filename.concat "data" "baselines"

let baseline_check ~seed s =
  if seed <> default_seed || not s.item.manifest then []
  else
    match C.read_baseline ~dir:baseline_dir s.outcome.C.name with
    | None -> [ Printf.sprintf "%s: no baseline in %s" s.item.label baseline_dir ]
    | Some expected ->
      List.map
        (fun d -> Printf.sprintf "%s: baseline: %s" s.item.label d)
        (C.diff ~perf_slack:0. ~expected ~actual:s.outcome ())

(* Independent reference: simulate the MP realization with the compiled
   backend in [oracle_batches] seeded batches and compare the batch mean
   with the reported MP power.

   The reported power is exact except on the cones the ladder simulated,
   where it is a mean over [sim_cycles] cycles. Each batch also prices its
   measured probabilities on the nodes of those cones alone (the price is
   linear in node probabilities), which gives the per-cycle variance of
   that part and so the standard error of the ladder's own estimate, in
   units of power. The gap may be at most 5 combined standard errors:
   the oracle's batch mean and the ladder's simulated part. *)
let oracle_batches = 32

let oracle_cycles = 1_000

(* nodes in the fan-in cone of an output the ladder simulated *)
let simulated_nodes mapped (d : Engine.degradation) =
  let net = Dpa_domino.Mapped.net mapped in
  let seen = Array.make (Netlist.size net) false in
  let rec mark = function
    | [] -> ()
    | v :: rest when seen.(v) -> mark rest
    | v :: rest ->
      seen.(v) <- true;
      mark (Array.fold_left (fun acc u -> u :: acc) rest (Netlist.fanins net v))
  in
  Array.iteri
    (fun k (_, driver) -> if d.Engine.methods.(k) = Engine.Simulated then mark [ driver ])
    (Netlist.outputs net);
  seen

let mean_var xs =
  let n = float_of_int (List.length xs) in
  let mean = List.fold_left ( +. ) 0.0 xs /. n in
  (mean, List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0))

let oracle_check ~seed s =
  match P.build s.item.spec.C.profile with
  | P.Seq _ -> []
  | P.Comb raw ->
    let net = Dpa_synth.Opt.optimize raw in
    let mp = s.flow.Flow.mp in
    let d = mp.Flow.degradation in
    let mapped =
      Dpa_domino.Mapped.map (Dpa_synth.Inverterless.realize net mp.Flow.assignment)
    in
    let simulated = simulated_nodes mapped d in
    let input_probs = Array.make (Netlist.num_inputs net) Flow.default_config.Flow.input_prob in
    let totals, sim_parts =
      List.split
        (List.init oracle_batches (fun b ->
             let rng = Dpa_util.Rng.derive ~base:seed ~index:b in
             let act =
               Dpa_sim.Simulator.measure ~backend:Dpa_sim.Backend.Compiled ~cycles:oracle_cycles
                 rng ~input_probs mapped
             in
             let probs = act.Dpa_sim.Simulator.node_probs in
             let sim_probs = Array.mapi (fun i p -> if simulated.(i) then p else 0.0) probs in
             ( (Dpa_power.Estimate.of_activity mapped act).Dpa_power.Estimate.total,
               (Dpa_power.Estimate.price mapped ~node_probs:sim_probs ~input_toggle:(fun _ -> 0.0))
                 .Dpa_power.Estimate.total )))
    in
    let n = float_of_int oracle_batches in
    let mean, var = mean_var totals in
    let _, sim_var = mean_var sim_parts in
    (* batch variance x batch length = per-cycle variance *)
    let ladder_var =
      if d.Engine.sim_cycles = 0 then 0.0
      else sim_var *. float_of_int oracle_cycles /. float_of_int d.Engine.sim_cycles
    in
    let gap = Float.abs (mean -. mp.Flow.power) in
    let allowed = 5.0 *. sqrt ((var /. n) +. ladder_var) in
    Printf.printf "oracle  %-20s gap %.6f, allowed %.6f (of power %.4f)\n" s.item.label gap
      allowed mp.Flow.power;
    if gap <= allowed then []
    else
      [
        Printf.sprintf "%s: MP power %.6f vs simulated %.6f (gap %.6f > allowed %.6f)"
          s.item.label mp.Flow.power mean gap allowed;
      ]

(* ---- traced replay --------------------------------------------------- *)

type priced = {
  assignment : Dpa_synth.Phase.assignment;
  size : int;
  power : float;
  delay : float;
  label : string;
}

let of_realization (r : Flow.realization) =
  {
    assignment = r.Flow.assignment;
    size = r.Flow.size;
    power = r.Flow.power;
    delay = r.Flow.critical_delay;
    label = Engine.degradation_label r.Flow.degradation;
  }

let same_priced a b =
  Dpa_synth.Phase.equal a.assignment b.assignment
  && a.size = b.size
  && Int64.equal (Int64.bits_of_float a.power) (Int64.bits_of_float b.power)
  && Int64.equal (Int64.bits_of_float a.delay) (Int64.bits_of_float b.delay)
  && a.label = b.label

let span = Spans.span

let realize_price ~id (config : Flow.config) net ~input_probs assignment =
  let inv = span ~id "synth.realize" (fun () -> Dpa_synth.Inverterless.realize net assignment) in
  let mapped =
    span ~id "domino.map" (fun () -> Dpa_domino.Mapped.map ~library:config.Flow.library inv)
  in
  let sta = span ~id "timing.sta" (fun () -> Dpa_timing.Sta.analyze mapped) in
  let est =
    span ~id "power.estimate" (fun () ->
        Engine.estimate ?par:config.Flow.par ?budget:config.Flow.budget
          ~cancel:config.Flow.cancel ~input_probs mapped)
  in
  {
    assignment;
    size = Dpa_domino.Mapped.size mapped;
    power = est.Engine.report.Dpa_power.Estimate.total;
    delay = sta.Dpa_timing.Sta.critical_delay;
    label = Engine.degradation_label est.Engine.degradation;
  }

(* Flow.compare_ma_mp_probs, one public call per span (untimed flow) *)
let replay_comb ~id (config : Flow.config) ~input_probs raw =
  let net = span ~id "synth.optimize" (fun () -> Dpa_synth.Opt.optimize raw) in
  let ma_assignment =
    span ~id "synth.min_area" (fun () ->
        Dpa_synth.Min_area.best ~exhaustive_limit:config.Flow.exhaustive_limit net)
  in
  let ma = realize_price ~id config net ~input_probs ma_assignment in
  let opt =
    span ~id "phase.search" (fun () ->
        Dpa_phase.Optimizer.minimize_power
          {
            Dpa_phase.Optimizer.library = config.Flow.library;
            input_probs;
            strategy = Dpa_phase.Optimizer.Auto;
            exhaustive_limit = config.Flow.exhaustive_limit;
            pair_limit = config.Flow.pair_limit;
            seed = config.Flow.seed;
            budget = config.Flow.budget;
            par = config.Flow.par;
            cancel = config.Flow.cancel;
          }
          net)
  in
  let mp = realize_price ~id config net ~input_probs opt.Dpa_phase.Optimizer.assignment in
  (ma, mp)

(* Returns the replayed (MA, MP) pricings and the flip-flop
   probabilities of a sequential circuit. *)
let replay_one ~id par it =
  let config = config_of par it in
  span ~id "core.circuit" @@ fun () ->
  let circuit = span ~id "workload.generate" (fun () -> P.build it.spec.C.profile) in
  let prob = config.Flow.input_prob in
  match circuit with
  | P.Comb net ->
    let input_probs = Array.make (Netlist.num_inputs net) prob in
    (replay_comb ~id config ~input_probs net, None)
  | P.Seq sn ->
    let input_probs = Array.make (Dpa_seq.Seq_netlist.n_real_inputs sn) prob in
    let part =
      span ~id "seq.partition" (fun () ->
          Dpa_seq.Partition.probabilities ~refine:2 ~input_probs sn)
    in
    let _mfvs =
      span ~id "seq.mfvs" (fun () -> Dpa_seq.Mfvs.solve (Dpa_seq.Sgraph.of_seq_netlist sn))
    in
    let input_probs = Array.append input_probs part.Dpa_seq.Partition.ff_probs in
    (replay_comb ~id config ~input_probs (seq_core sn), Some part.Dpa_seq.Partition.ff_probs)

(* Registry counters summed over the workload; the registry is reset
   before each circuit. *)
let summed =
  [
    "engine.cones.exact"; "engine.cones.reordered"; "engine.cones.simulated";
    "bdd.nodes_allocated"; "bdd.unique.probes"; "bdd.ite.probes"; "bdd.ite.hits";
    "bdd.sift.swaps"; "engine.sim_cycles"; "phase.measure.evaluations";
    "phase.measure.cache_hits"; "phase.greedy.moves_committed"; "phase.greedy.moves_rejected";
    "par.tasks";
  ]

let harvest sums peak =
  List.iter
    (fun n ->
      Hashtbl.replace sums n
        (Option.value (Hashtbl.find_opt sums n) ~default:0
        + Metrics.counter_value (Metrics.counter n)))
    summed;
  peak := Float.max !peak (Metrics.gauge_value (Metrics.gauge "bdd.manager.peak_nodes"))

(* ---- the workload ---------------------------------------------------- *)

(* Set-up (generating the circuits) takes milliseconds, and a shared
   host flips between a fast and a slow state every few seconds. So the
   generation is repeated in windows of a quarter second spread over the
   whole run: one before the sweep and one after each circuit, outside
   the sweep's clock and on a compacted heap. The median of all repeats is
   reported. *)
let setup_min_reps = 4

let setup_window_s = 0.25

let time_setup items =
  let rec go acc n spent =
    if n >= setup_min_reps && spent >= setup_window_s then acc
    else
      let _, dt = time (fun () -> List.iter (fun it -> ignore (P.build it.spec.C.profile)) items) in
      go (dt :: acc) (n + 1) (spent +. dt)
  in
  go [] 0 0.0

let run ~kind ~name ~seed ~trace =
  let items = items ~seed kind in
  let setup_before = time_setup items in
  let setup_during = ref [] in
  (* the timed sweep: the sum of the circuits' wall times, each started
     from a compacted heap *)
  let swept =
    Dpa_util.Par.with_pool ~jobs:1 (fun par ->
        List.map
          (fun it ->
            Gc.compact ();
            let s = sweep_one par it in
            Gc.compact ();
            setup_during := time_setup items @ !setup_during;
            s)
          items)
  in
  let sweep_s = List.fold_left (fun acc s -> acc +. s.wall_s) 0.0 swept in
  let rss = peak_rss_mb () in
  let setup_times = setup_before @ !setup_during in
  (* per circuit, the messages of every check it failed *)
  let checks = List.map (fun s -> baseline_check ~seed s @ oracle_check ~seed s) swept in
  let count_failed checks = List.length (List.filter (( <> ) []) checks) in
  (* total MP power over total MA power: the small circuits, whose ratio
     swings most with the generator seed, weigh by their power *)
  let mp_ratio =
    List.fold_left (fun acc s -> acc +. s.outcome.C.mp_power) 0.0 swept
    /. List.fold_left (fun acc s -> acc +. s.outcome.C.ma_power) 0.0 swept
  in
  let area_ratio =
    geomean
      (List.map
         (fun s -> float_of_int s.outcome.C.mp_size /. float_of_int s.outcome.C.ma_size)
         swept)
  in
  let bdd_cones, all_cones =
    List.fold_left
      (fun (b, a) s ->
        let d = s.flow.Flow.mp.Flow.degradation in
        ( b + Engine.exact_cones d + Engine.reordered_cones d,
          a + Array.length d.Engine.methods ))
      (0, 0) swept
  in
  List.iter
    (fun s ->
      Printf.printf "circuit %-20s %6d gates  %8.3f s  ladder %-14s MP/MA power %.4f\n"
        s.item.label s.outcome.C.gates s.wall_s s.outcome.C.ladder
        (s.outcome.C.mp_power /. s.outcome.C.ma_power))
    swept;
  let attempted = List.length swept in
  if not trace then begin
    let failed = count_failed checks in
    {
      attempted;
      failed;
      invalid = None;
      failures = List.concat checks;
      metrics =
        [
          metric "setup_s" "s" (median setup_times)
            ~note:
              (Printf.sprintf "median of %d generations (%.6f before the sweep, %.6f between circuits)"
                 (List.length setup_times) (median setup_before) (median !setup_during));
          metric "sweep_s" "s" sweep_s ~note:(Printf.sprintf "%d circuits, jobs 1" attempted);
          metric "peak_rss_mb" "MB" rss;
          metric "ok_frac" "ratio" (1.0 -. ratio failed attempted)
            ~note:(Printf.sprintf "%d of %d circuits failed a check" failed attempted);
          metric "mp_power_ratio" "ratio" mp_ratio ~note:"total MP / total MA power";
          metric "mp_area_ratio" "ratio" area_ratio ~note:"geomean MP/MA cells";
          metric "exact_cone_frac" "ratio" (ratio bdd_cones all_cones)
            ~note:(Printf.sprintf "%d of %d final MP cones by BDD" bdd_cones all_cones);
        ];
    }
  end
  else begin
    (* traced replay, compared bit for bit with the untraced flow *)
    let layers = new_layer_table () in
    let sums = Hashtbl.create 16 and peak = ref 0.0 in
    Gc.compact ();
    Dpa_obs.Trace.start ();
    let replayed, traced_s =
      time (fun () ->
          Dpa_util.Par.with_pool ~jobs:1 (fun par ->
              List.mapi
                (fun id s ->
                  Metrics.reset ();
                  let r = replay_one ~id par s.item in
                  harvest sums peak;
                  r)
                swept))
    in
    Dpa_obs.Trace.stop ();
    let checks =
      List.map2
        (fun c (s, ((ma, mp), ff)) ->
          let ok =
            same_priced ma (of_realization s.flow.Flow.ma)
            && same_priced mp (of_realization s.flow.Flow.mp)
            && Option.equal
                 (fun a b ->
                   Array.for_all2
                     (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
                     a b)
                 ff s.ff_probs
          in
          if ok then c else c @ [ s.item.label ^ ": traced replay differs from the flow" ])
        checks (List.combine swept replayed)
    in
    let rows = Spans.self_times () in
    let self = Spans.self_ms rows in
    List.iter
      (fun (metric_name, span_name) -> layer_set layers metric_name (self span_name))
      [
        ("workload.generate_ms", "workload.generate");
        ("synth.optimize_ms", "synth.optimize");
        ("synth.min_area_ms", "synth.min_area");
        ("synth.realize_ms", "synth.realize");
        ("domino.map_ms", "domino.map");
        ("timing.sta_ms", "timing.sta");
        ("power.estimate_ms", "power.estimate");
        ("phase.search_ms", "phase.search");
        ("seq.partition_ms", "seq.partition");
        ("seq.mfvs_ms", "seq.mfvs");
      ];
    let calls =
      match List.find_opt (fun r -> r.Spans.layer = "power.estimate") rows with
      | Some r -> r.Spans.calls
      | None -> 0
    in
    let roots_ms =
      match List.find_opt (fun r -> r.Spans.layer = "core.circuit") rows with
      | Some r -> r.Spans.total_ms
      | None -> nan
    in
    let covered =
      List.fold_left
        (fun acc r -> if r.Spans.layer = "core.circuit" then acc else acc +. r.Spans.self_ms)
        0.0 rows
    in
    let untraced_flow_s = List.fold_left (fun acc s -> acc +. s.flow_s) 0.0 swept in
    let n name = Hashtbl.find sums name in
    let f name = float_of_int (n name) in
    List.iter
      (fun (name, v) -> layer_set layers name v)
      [
        ("power.estimate_calls", float_of_int calls);
        ("power.cones_exact", f "engine.cones.exact");
        ("power.cones_reordered", f "engine.cones.reordered");
        ("power.cones_simulated", f "engine.cones.simulated");
        ("bdd.nodes_allocated", f "bdd.nodes_allocated");
        ("bdd.unique_probes", f "bdd.unique.probes");
        ("bdd.ite_probes", f "bdd.ite.probes");
        ("bdd.ite_hit_ratio", ratio (n "bdd.ite.hits") (n "bdd.ite.probes"));
        ("bdd.sift_swaps", f "bdd.sift.swaps");
        ("bdd.peak_nodes", !peak);
        ("sim.cycles", f "engine.sim_cycles");
        ("phase.evaluations", f "phase.measure.evaluations");
        ( "phase.eval_cache_hit_ratio",
          ratio (n "phase.measure.cache_hits")
            (n "phase.measure.cache_hits" + n "phase.measure.evaluations") );
        ( "phase.accept_ratio",
          ratio (n "phase.greedy.moves_committed")
            (n "phase.greedy.moves_committed" + n "phase.greedy.moves_rejected") );
        ("par.tasks", f "par.tasks");
        ("trace.overhead_s", traced_s -. untraced_flow_s);
        ("trace.self_time_coverage", covered /. roots_ms);
      ];
    List.iter
      (fun s ->
        let row = "circuit." ^ s.item.circuit ^ "_s" in
        layer_set layers row (Hashtbl.find layers row +. s.wall_s))
      swept;
    Spans.write ~workload:name rows
      ~extra:
        (Printf.sprintf
           "traced replay %.3f s, untraced flow %.3f s (sweep %.3f s): overhead %+.3f s; \
            layer self time covers %.1f%% of the traced circuits\n"
           traced_s untraced_flow_s sweep_s (traced_s -. untraced_flow_s)
           (100.0 *. covered /. roots_ms));
    {
      attempted;
      failed = count_failed checks;
      invalid = None;
      failures = List.concat checks;
      metrics = layer_metric_list layers;
    }
  end
