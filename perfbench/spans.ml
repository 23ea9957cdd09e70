(* The benchmark's own spans: recorded with Dpa_obs.Trace around calls
   into each layer's public functions, tagged with the circuit or request
   they belong to. Self time is computed over these spans only; the
   program's internal spans land in the same Chrome trace but are not
   counted here. *)

module Trace = Dpa_obs.Trace

let prefix = "bench:"

let span ~id name f = Trace.with_span (prefix ^ name) ~args:[ ("id", Trace.Int id) ] f

type row = { layer : string; calls : int; total_ms : float; self_ms : float }

let is_bench (e : Trace.event) =
  e.Trace.kind = `Span
  && String.length e.Trace.name > String.length prefix
  && String.sub e.Trace.name 0 (String.length prefix) = prefix

(* Self time = duration minus the part covered by directly nested bench
   spans. Spans come from one domain (the benchmark runs at width 1), so
   nesting is interval containment. *)
let self_times () =
  let evs =
    Trace.events () |> List.filter is_bench
    |> List.map (fun (e : Trace.event) ->
           ( String.sub e.Trace.name (String.length prefix)
               (String.length e.Trace.name - String.length prefix),
             e.Trace.ts_ns,
             e.Trace.dur_ns,
             ref 0 ))
    |> List.sort (fun (_, t1, d1, _) (_, t2, d2, _) ->
           if t1 <> t2 then compare t1 t2 else compare d2 d1)
  in
  let stack = ref [] in
  List.iter
    (fun ((_, ts, dur, _) as ev) ->
      let rec pop () =
        match !stack with
        | (_, pts, pdur, _) :: rest when pts + pdur <= ts ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with (_, _, _, child) :: _ -> child := !child + dur | [] -> ());
      stack := ev :: !stack)
    evs;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, _, dur, child) ->
      let calls, total, self =
        Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0, 0)
      in
      Hashtbl.replace tbl name (calls + 1, total + dur, self + dur - !child))
    evs;
  Hashtbl.fold
    (fun layer (calls, total, self) acc ->
      { layer; calls; total_ms = float_of_int total /. 1e6; self_ms = float_of_int self /. 1e6 }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.self_ms a.self_ms)

let self_ms rows layer =
  match List.find_opt (fun r -> r.layer = layer) rows with Some r -> r.self_ms | None -> 0.0

let table_text ~title rows =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s\n%-22s %8s %12s %12s\n" title "span" "calls" "total_ms" "self_ms";
  List.iter
    (fun r -> Printf.bprintf b "%-22s %8d %12.3f %12.3f\n" r.layer r.calls r.total_ms r.self_ms)
    rows;
  Buffer.contents b

(* Writes the Chrome trace and the self-time table of a traced run. *)
let write ~workload rows ~extra =
  Common.ensure_out_dir ();
  let base = Filename.concat Common.out_dir workload in
  Trace.save (base ^ "-trace.json");
  let text = table_text ~title:("self time by layer, " ^ workload) rows ^ extra in
  let oc = open_out (base ^ "-layers.txt") in
  output_string oc text;
  close_out oc;
  print_string text
