(* Benchmark entry point: one workload per process, end-to-end metrics
   with tracing off (--trace 0) or per-layer metrics from a traced run
   (--trace 1). The last stdout line is the JSON result. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15 and trace = ref 0 in
  let server = ref "" and p99_limit_ms = ref 0.0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME corpus_ladder | corpus_search | service_mix");
      ("--seed", Arg.Set_int seed, "N workload seed (1 = the corpus manifest seeds)");
      ("--seconds", Arg.Set_int seconds, "S length of the service's open-loop phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or a traced per-layer run");
      ("--server", Arg.Set_string server, "EXE the dominoflow binary (service_mix)");
      ("--p99-limit-ms", Arg.Set_float p99_limit_ms, "MS all-request p99 limit for max_rate_rps");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench [options]";
  let trace = !trace <> 0 in
  let outcome =
    match !workload with
    | "corpus_ladder" ->
      Corpus_wl.run ~kind:Corpus_wl.Ladder ~name:!workload ~seed:!seed ~trace
    | "corpus_search" ->
      Corpus_wl.run ~kind:Corpus_wl.Search ~name:!workload ~seed:!seed ~trace
    | "service_mix" ->
      if !server = "" || !p99_limit_ms <= 0.0 then begin
        prerr_endline "service_mix needs --server and --p99-limit-ms";
        exit 2
      end;
      Service_wl.run ~seed:!seed ~seconds:!seconds ~trace ~server:!server
        ~p99_limit_ms:!p99_limit_ms
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  Common.print_outcome outcome
