(* Shared plumbing for the benchmark: clocks, order statistics, process
   memory, the result record printed as the last stdout line, and the
   per-layer table filled by traced runs. *)

module Json = Dpa_util.Jsonlite

let now_s () = float_of_int (Dpa_obs.Clock.now_ns ()) /. 1e9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* ---- order statistics ------------------------------------------------ *)

(* Nearest-rank percentile of an unsorted sample ([q] in [0, 1]). *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs = percentile 0.5 xs

(* Samples strictly above the [q] percentile's rank: a percentile is only
   reported when at least ten samples lie beyond it. *)
let beyond q n = n - int_of_float (Float.ceil (q *. float_of_int n))

let geomean = function
  | [] -> nan
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* ---- process memory -------------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MB; [pid] defaults to self. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> loop ()
        | exception End_of_file -> nan
      in
      loop ())

(* ---- output ---------------------------------------------------------- *)

let out_dir = "_perfbench"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

type outcome = {
  attempted : int;
  failed : int;
  invalid : string option;  (** the run measured nothing trustworthy *)
  failures : string list;
  metrics : metric list;
}

let print_outcome o =
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) o.failures;
  (match o.invalid with Some why -> Printf.printf "INVALID %s\n" why | None -> ());
  List.iter
    (fun m ->
      Printf.printf "%-34s %14.6f %-6s %s\n" m.name m.value m.unit_ m.note)
    o.metrics;
  let metrics =
    Json.Obj
      (List.map
         (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
         o.metrics)
  in
  print_endline
    (Json.encode
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0 && o.invalid = None));
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ("metrics", metrics);
          ]))

(* ---- per-layer table ------------------------------------------------- *)

(* Every per-layer metric, in report order. A traced run of any workload
   prints all of them; a layer the workload never enters reads 0. *)
let circuit_labels =
  [
    "mult8"; "add4x8"; "parity_smoke"; "parity_smoke_capped"; "industry3"; "ctrl_dense";
    "apex7"; "ctrl_smoke";
  ]

let layer_metrics =
  [
    ("workload.generate_ms", "ms");
    ("synth.optimize_ms", "ms");
    ("synth.min_area_ms", "ms");
    ("synth.realize_ms", "ms");
    ("domino.map_ms", "ms");
    ("timing.sta_ms", "ms");
    ("power.estimate_ms", "ms");
    ("power.estimate_calls", "count");
    ("power.cones_exact", "count");
    ("power.cones_reordered", "count");
    ("power.cones_simulated", "count");
    ("bdd.nodes_allocated", "count");
    ("bdd.unique_probes", "count");
    ("bdd.ite_probes", "count");
    ("bdd.ite_hit_ratio", "ratio");
    ("bdd.sift_swaps", "count");
    ("bdd.peak_nodes", "count");
    ("sim.cycles", "count");
    ("phase.search_ms", "ms");
    ("phase.evaluations", "count");
    ("phase.eval_cache_hit_ratio", "ratio");
    ("phase.accept_ratio", "ratio");
    ("seq.partition_ms", "ms");
    ("seq.mfvs_ms", "ms");
  ]
  @ List.map (fun l -> ("circuit." ^ l ^ "_s", "s")) circuit_labels
  @ [
      ("par.tasks", "count");
      ("trace.overhead_s", "s");
      ("trace.self_time_coverage", "ratio");
      ("service.parse_us", "us");
      ("logic.struct_hash_us", "us");
      ("service.cache_find_us", "us");
      ("service.encode_us", "us");
      ("service.execute_ms", "ms");
      ("service.queue_wait_p50_ms", "ms");
      ("service.queue_wait_p99_ms", "ms");
      ("service.cache_hit_ratio", "ratio");
      ("service.cache_hits", "count");
      ("service.cache_misses", "count");
      ("service.cache_evictions", "count");
      ("service.worker_busy_frac", "ratio");
      ("loadgen.late_p99_ms", "ms");
      ("loadgen.hit_p50_ms", "ms");
      ("loadgen.hit_p99_ms", "ms");
      ("loadgen.miss_p50_ms", "ms");
      ("loadgen.miss_p90_ms", "ms");
      ("loadgen.max_rate_rps", "1/s");
    ]

let layer_unit name =
  match List.assoc_opt name layer_metrics with
  | Some u -> u
  | None -> invalid_arg ("unknown per-layer metric " ^ name)

(* name -> value, every metric present from the start *)
let new_layer_table () =
  let t = Hashtbl.create 64 in
  List.iter (fun (n, _) -> Hashtbl.replace t n 0.0) layer_metrics;
  t

let layer_set t name v =
  ignore (layer_unit name);
  Hashtbl.replace t name v

let layer_metric_list t =
  List.map (fun (n, u) -> metric n u (Hashtbl.find t n)) layer_metrics

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
