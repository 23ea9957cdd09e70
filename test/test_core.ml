module Flow = Dpa_core.Flow
module Report = Dpa_core.Report
module Netlist = Dpa_logic.Netlist

let small_profile seed =
  { Dpa_workload.Generator.default with
    Dpa_workload.Generator.seed;
    n_inputs = 16;
    n_outputs = 5;
    gates_per_output = 8;
    and_bias = 0.35;
    inverter_prob = 0.1;
    reuse_fraction = 0.4 }

let test_flow_untimed () =
  let net = Dpa_workload.Generator.combinational (small_profile 1) in
  let r = Flow.compare_ma_mp net in
  Alcotest.(check int) "pis" 16 r.Flow.n_pi;
  Alcotest.(check int) "pos" 5 r.Flow.n_po;
  Alcotest.(check bool) "clockless" true (r.Flow.clock = None);
  Alcotest.(check bool) "both met untimed" true (r.Flow.ma.Flow.met && r.Flow.mp.Flow.met);
  (* MP is exhaustive here (5 ≤ 10) hence power-optimal: never worse *)
  Alcotest.(check string) "mp strategy" "exhaustive" r.Flow.mp.Flow.strategy;
  Alcotest.(check bool) "mp no worse" true (r.Flow.mp.Flow.power <= r.Flow.ma.Flow.power +. 1e-9);
  Alcotest.(check bool) "saving consistent" true
    (Testkit.approx ~eps:1e-6
       (Dpa_util.Stats.percent_change ~from:r.Flow.ma.Flow.power ~to_:r.Flow.mp.Flow.power)
       r.Flow.power_saving_pct)

let test_flow_timed () =
  let net = Dpa_workload.Generator.combinational (small_profile 2) in
  let config = { Flow.default_config with timing = Some Flow.default_timing } in
  let r = Flow.compare_ma_mp ~config net in
  (match r.Flow.clock with
  | None -> Alcotest.fail "expected a clock constraint"
  | Some clk ->
    Alcotest.(check bool) "positive clock" true (clk > 0.0);
    (* the 0.85 factor forces MA to resize; it must still close timing *)
    Alcotest.(check bool) "ma met" true r.Flow.ma.Flow.met;
    Alcotest.(check bool) "ma within clock" true (r.Flow.ma.Flow.critical_delay <= clk +. 1e-9))

let test_flow_exhaustive_mp_optimal () =
  (* with few outputs, MP's exhaustive search beats or ties every single
     alternative assignment *)
  let net = Dpa_workload.Generator.combinational (small_profile 3) in
  let r = Flow.compare_ma_mp net in
  let opt = Dpa_synth.Opt.optimize net in
  let probs = Array.make (Netlist.num_inputs opt) 0.5 in
  let measure = Dpa_phase.Measure.create ~input_probs:probs opt in
  Seq.iter
    (fun a ->
      let s = Dpa_phase.Measure.eval measure a in
      Alcotest.(check bool) "mp optimal" true (r.Flow.mp.Flow.power <= s.Dpa_phase.Measure.power +. 1e-9))
    (Dpa_synth.Phase.enumerate ~num_outputs:5)

let test_report_table () =
  let net = Dpa_workload.Generator.combinational (small_profile 4) in
  let r = Flow.compare_ma_mp net in
  let s = Report.table ~title:"Test table" [ ("Synthetic", r) ] in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  let contains needle = Testkit.contains_substring s needle in
  Alcotest.(check bool) "has average row" true (contains "Average");
  Alcotest.(check bool) "has circuit name" true (contains "synthetic")

let test_report_summary_and_averages () =
  let net = Dpa_workload.Generator.combinational (small_profile 5) in
  let r = Flow.compare_ma_mp net in
  let s = Report.summary r in
  Alcotest.(check bool) "summary nonempty" true (String.length s > 40);
  let pen, sav = Report.averages [ r; r ] in
  Testkit.check_approx "pen avg" r.Flow.area_penalty_pct pen;
  Testkit.check_approx "sav avg" r.Flow.power_saving_pct sav

let test_flow_rejects_empty () =
  let t = Netlist.create () in
  let a = Netlist.add_input t in
  ignore a;
  Alcotest.check_raises "no outputs"
    (Invalid_argument "Optimizer.minimize_power: network has no outputs") (fun () ->
      ignore (Flow.compare_ma_mp t))

let test_seq_flow () =
  let sn =
    Dpa_workload.Generator.sequential
      { (small_profile 8) with Dpa_workload.Generator.n_outputs = 3 }
      ~n_ffs:4
  in
  let r = Dpa_core.Seq_flow.compare_ma_mp sn in
  (* the combinational comparison covers primary outputs AND D pins *)
  Alcotest.(check int) "block outputs" 7 r.Dpa_core.Seq_flow.comb.Flow.n_po;
  Alcotest.(check int) "ff probabilities" 4 (Array.length r.Dpa_core.Seq_flow.ff_probs);
  Array.iter
    (fun p -> Alcotest.(check bool) "probability range" true (p >= 0.0 && p <= 1.0))
    r.Dpa_core.Seq_flow.ff_probs;
  Alcotest.(check bool) "fvs is valid" true
    (Dpa_seq.Mfvs.is_feedback_vertex_set
       (Dpa_seq.Sgraph.of_seq_netlist sn)
       r.Dpa_core.Seq_flow.fvs);
  (* 7 outputs ≤ the exhaustive limit, so MP is optimal and never worse *)
  Alcotest.(check bool) "mp no worse" true
    (r.Dpa_core.Seq_flow.comb.Flow.mp.Flow.power
    <= r.Dpa_core.Seq_flow.comb.Flow.ma.Flow.power +. 1e-9)

let test_report_csv () =
  let net = Dpa_workload.Generator.combinational (small_profile 6) in
  let r = Flow.compare_ma_mp net in
  let csv = Report.csv [ ("Synthetic", r) ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row" 2 (List.length lines);
  (match lines with
  | [ header; row ] ->
    Alcotest.(check int) "header columns" 17
      (List.length (String.split_on_char ',' header));
    Alcotest.(check int) "row columns" 17 (List.length (String.split_on_char ',' row));
    Alcotest.(check bool) "row names circuit" true
      (Testkit.contains_substring row r.Flow.circuit)
  | _ -> Alcotest.fail "unexpected csv shape")

let test_flow_probs_length_mismatch () =
  let net = Dpa_workload.Generator.combinational (small_profile 9) in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Flow.compare_ma_mp_probs: input_probs length mismatch") (fun () ->
      ignore (Flow.compare_ma_mp_probs ~input_probs:[| 0.5 |] net))

let check_bits msg a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %h <> %h" msg a b

(* Engine estimates a flow runs (the unbudgeted search prices candidates
   incrementally, outside the engine). *)
let estimates_of f =
  let c = Dpa_obs.Metrics.counter "engine.estimates" in
  let before = Dpa_obs.Metrics.counter_value c in
  let r = f () in
  (r, Dpa_obs.Metrics.counter_value c - before)

let test_zero_flip_reuses_ma () =
  let zero, n_zero =
    estimates_of (fun () -> Flow.compare_ma_mp (Dpa_workload.Examples.carry_chain ~width:4))
  in
  let flips, n_flips =
    estimates_of (fun () ->
        Flow.compare_ma_mp (Dpa_workload.Generator.combinational (small_profile 1)))
  in
  let ma = zero.Flow.ma and mp = zero.Flow.mp in
  Alcotest.(check bool) "the optimizer kept MA's phases" true
    (Dpa_synth.Phase.equal ma.Flow.assignment mp.Flow.assignment);
  Alcotest.(check bool) "the other circuit flips" false
    (Dpa_synth.Phase.equal flips.Flow.ma.Flow.assignment flips.Flow.mp.Flow.assignment);
  Alcotest.(check int) "one estimate fewer than a flow that flips" (n_flips - 1) n_zero;
  (* MP keeps its own search record *)
  Alcotest.(check bool) "mp measured" true (mp.Flow.measurements > 0);
  Alcotest.(check bool) "mp strategy is the search's" true (mp.Flow.strategy <> ma.Flow.strategy);
  (* and its price is the one pricing MP's block separately gives *)
  let net = Dpa_synth.Opt.optimize (Dpa_workload.Examples.carry_chain ~width:4) in
  let mapped = Dpa_domino.Mapped.map (Dpa_synth.Inverterless.realize net mp.Flow.assignment) in
  let est =
    Dpa_power.Engine.estimate ~input_probs:(Array.make (Netlist.num_inputs net) 0.5) mapped
  in
  check_bits "mp power" est.Dpa_power.Engine.report.Dpa_power.Estimate.total mp.Flow.power;
  check_bits "mp delay"
    (Dpa_timing.Sta.analyze mapped).Dpa_timing.Sta.critical_delay mp.Flow.critical_delay;
  Alcotest.(check int) "mp size" (Dpa_domino.Mapped.size mapped) mp.Flow.size;
  Alcotest.(check bool) "mp met" true mp.Flow.met;
  Alcotest.(check string) "mp degradation"
    (Dpa_power.Engine.degradation_to_string est.Dpa_power.Engine.degradation)
    (Dpa_power.Engine.degradation_to_string mp.Flow.degradation)

(* The objective the search minimizes is the one the report prints: under
   a budget that degrades estimates, the optimizer's MP power and the
   flow's reported MP power are the same bits, with and without a pool. *)
let test_budgeted_search_objective_is_reported () =
  let raw = Dpa_workload.Generator.combinational (small_profile 3) in
  let net = Dpa_synth.Opt.optimize raw in
  let input_probs = Array.make (Netlist.num_inputs net) 0.5 in
  let budget = Some (Dpa_power.Engine.bounded ~max_bdd_nodes:6 ()) in
  let check par =
    let r = Flow.compare_ma_mp ~config:{ Flow.default_config with Flow.budget; par } raw in
    let opt =
      Dpa_phase.Optimizer.minimize_power
        { (Dpa_phase.Optimizer.default_config ~input_probs) with
          Dpa_phase.Optimizer.budget;
          par }
        net
    in
    Alcotest.(check bool) "the budget degraded the search" true
      (opt.Dpa_phase.Optimizer.degraded_measurements > 0);
    check_bits "optimizer MP power = reported MP power" opt.Dpa_phase.Optimizer.power
      r.Flow.mp.Flow.power
  in
  check None;
  Dpa_util.Par.with_pool ~jobs:2 (fun pool -> check (Some pool))

(* property: the flow is deterministic — same circuit, same result *)
let prop_flow_deterministic =
  Testkit.qcheck_case ~count:10 ~name:"flow deterministic"
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let net () = Dpa_workload.Generator.combinational (small_profile seed) in
      let r1 = Flow.compare_ma_mp (net ()) in
      let r2 = Flow.compare_ma_mp (net ()) in
      r1.Flow.mp.Flow.power = r2.Flow.mp.Flow.power
      && r1.Flow.ma.Flow.size = r2.Flow.ma.Flow.size
      && Dpa_synth.Phase.equal r1.Flow.mp.Flow.assignment r2.Flow.mp.Flow.assignment)

let suite =
  [ Alcotest.test_case "untimed flow" `Quick test_flow_untimed;
    Alcotest.test_case "timed flow" `Quick test_flow_timed;
    Alcotest.test_case "mp exhaustive optimal" `Quick test_flow_exhaustive_mp_optimal;
    Alcotest.test_case "report table" `Quick test_report_table;
    Alcotest.test_case "report summary" `Quick test_report_summary_and_averages;
    Alcotest.test_case "flow rejects empty" `Quick test_flow_rejects_empty;
    Alcotest.test_case "sequential flow" `Quick test_seq_flow;
    Alcotest.test_case "report csv" `Quick test_report_csv;
    Alcotest.test_case "probs length mismatch" `Quick test_flow_probs_length_mismatch;
    Alcotest.test_case "zero-flip flow reuses MA" `Quick test_zero_flip_reuses_ma;
    Alcotest.test_case "budgeted search objective is reported" `Quick
      test_budgeted_search_objective_is_reported;
    prop_flow_deterministic ]
