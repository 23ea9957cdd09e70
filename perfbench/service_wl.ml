(* service_mix: a [dominoflow serve] process with one worker and a small
   result cache, driven by an open-loop, seeded Poisson stream of
   [compare] requests on generated netlists.

   About 80% of the requests repeat a small set answered during set-up
   (cache reads); the rest are never-seen netlists (misses, each also
   stored into the cache, so the LRU evicts). Every request is timed from
   its due time. An untraced run then serves a second request list of the
   same mix closed loop, one request at a time, and reports its wall time
   as the sweep. A traced run instead offers a ramp of higher fixed rates
   to a fresh server and finds the highest rate whose all-request p99
   stays under the limit. *)

open Common
module G = Dpa_workload.Generator
module Protocol = Dpa_service.Protocol
module Json = Dpa_util.Jsonlite
module Rng = Dpa_util.Rng

(* ---- inputs ---------------------------------------------------------- *)

let repeat_set = 24

let hit_share = 0.8

let min_hits = 1_000

let min_misses = 100

let level_requests = 1_000

(* the closed-loop sweep: about 4,000 requests of the same mix, 800 of
   them never seen, so about 8 s of worker time *)
let sweep_hits = 3_200

let sweep_misses = 800

let ramp = [ 2.75; 3.0; 3.25; 3.5; 3.75; 4.0; 4.5; 5.0 ]

(* 16 entries per lock stripe: the never-seen requests overflow it (stores
   evict), while the repeat set, read several times a second, stays *)
let cache_entries = 256

(* The fixed offered rate, requests/s. With the netlists below a miss
   costs about 8 ms, so the one worker is about a quarter busy: the hit
   median then sits in the hit mode, not between hits and misses. The
   rate, the cache size and the netlist size are tuned together. *)
let rate = 120.0

(* Control-style blocks of about 120 gates with 12 outputs, so the phase
   search is the greedy one and a miss costs about 8 ms. *)
let netlist ~name ~seed =
  G.combinational
    {
      G.default with
      G.name;
      seed;
      n_inputs = 20;
      n_outputs = 12;
      support = 6;
      gates_per_output = 8;
      max_fanin = 4;
      and_bias = 0.35;
      inverter_prob = 0.12;
      reuse_fraction = 0.45;
    }

(* The request line of a netlist minus its leading [{"id":0]: a request
   is [{"id":<n>] followed by this body. *)
let body net =
  let line =
    Protocol.request_line
      {
        Protocol.id = 0;
        request =
          Protocol.Compare
            {
              source =
                Protocol.Inline { text = Dpa_logic.Io.to_string net; format = `Dln };
              input_prob = 0.5;
              seed = 1;
              budget = None;
            };
        cache = `Use;
      }
  in
  let prefix = "{\"id\":0" in
  assert (String.sub line 0 (String.length prefix) = prefix);
  String.sub line (String.length prefix) (String.length line - String.length prefix)

let line_of ~id body = "{\"id\":" ^ string_of_int id ^ body

type req = {
  id : int;
  due : float;  (** seconds after the phase starts *)
  hit : bool;
  key : int;  (** repeat-set index, or miss index *)
  line : string;
}

(* Seeded Poisson arrivals at [rate]; at least [min_hits] repeats and
   [min_misses] never-seen requests, and at least [duration] seconds. *)
let schedule ~rng ~rate ~duration ~min_hits ~min_misses ~first_id ~repeat_bodies ~fresh =
  let rec go acc t n_hits n_misses id =
    if t >= duration && n_hits >= min_hits && n_misses >= min_misses then List.rev acc
    else begin
      let u = Rng.float rng 1.0 in
      let t = t -. (log (1.0 -. u) /. rate) in
      if Rng.bernoulli rng hit_share then begin
        let k = Rng.int rng repeat_set in
        let r = { id; due = t; hit = true; key = k; line = line_of ~id repeat_bodies.(k) } in
        go (r :: acc) t (n_hits + 1) n_misses (id + 1)
      end
      else begin
        let k, b = fresh () in
        let r = { id; due = t; hit = false; key = k; line = line_of ~id b } in
        go (r :: acc) t n_hits (n_misses + 1) (id + 1)
      end
    end
  in
  Array.of_list (go [] 0.0 0 0 first_id)

(* ---- the server ------------------------------------------------------ *)

type server = { pid : int; socket : string; log : Unix.file_descr }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* Asks the server to drain with a [shutdown] request, which (unlike
   SIGTERM) returns through the CLI's normal exit path and so writes the
   --metrics file; SIGTERM, then SIGKILL, only if it does not exit. *)
let stop_server s =
  (* best effort: whatever goes wrong here, the signals below still run *)
  (try
     match connect s.socket with
     | Some fd ->
       let line = "{\"id\":0,\"cmd\":\"shutdown\"}\n" in
       Fun.protect
         ~finally:(fun () -> Unix.close fd)
         (fun () -> ignore (Unix.write_substring fd line 0 (String.length line)))
     | None -> ()
   with _ -> ());
  let rec reap deadline signals =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
      if now_s () < deadline then begin
        Unix.sleepf 0.01;
        reap deadline signals
      end
      else begin
        match signals with
        | sg :: rest ->
          (try Unix.kill s.pid sg with Unix.Unix_error _ -> ());
          reap (now_s () +. 5.0) rest
        | [] ->
          ignore (Unix.waitpid [] s.pid)
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap deadline signals
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()  (* already reaped *)
  in
  reap (now_s () +. 10.0) [ Sys.sigterm; Sys.sigkill ];
  Unix.close s.log;
  try Unix.unlink s.socket with Unix.Unix_error _ -> ()

let servers_started = ref 0

let start_server ~exe ~metrics_file =
  ensure_out_dir ();
  incr servers_started;
  let socket =
    Filename.concat out_dir (Printf.sprintf "svc-%d-%d.sock" (Unix.getpid ()) !servers_started)
  in
  let log =
    Unix.openfile
      (Filename.concat out_dir "service_mix-server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args =
    [
      exe; "serve"; "--socket"; socket; "--workers"; "1"; "--jobs"; "1"; "--cache-entries";
      string_of_int cache_entries; "--queue-capacity"; "4096";
    ]
    @ match metrics_file with Some f -> [ "--metrics"; f ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin log log in
  let s = { pid; socket; log } in
  let rec wait n =
    match connect socket with
    | Some fd -> fd
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "dominoflow serve exited during start-up");
      if n = 0 then failwith "dominoflow serve did not accept connections";
      Unix.sleepf 0.01;
      wait (n - 1)
  in
  match wait 1500 with
  | fd -> (s, fd)
  | exception e ->
    stop_server s;
    raise e

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* ---- the open-loop driver -------------------------------------------- *)

type result = {
  sent : float array;  (** seconds after the phase start *)
  recv : float array;
  resp : string array;
}

(* One connection, one thread: send each request when due, read replies
   in between. Latency is measured from the due time, so a stalled
   server also delays the clock of every request queued behind it. *)
let drive fd (reqs : req array) =
  let n = Array.length reqs in
  let index = Hashtbl.create n in
  Array.iteri (fun i r -> Hashtbl.replace index r.id i) reqs;
  let sent = Array.make n nan and recv = Array.make n nan and resp = Array.make n "" in
  let pending = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let received = ref 0 and next = ref 0 in
  let t0 = now_s () in
  let last_due = if n = 0 then 0.0 else reqs.(n - 1).due in
  let take_lines () =
    let s = Buffer.contents pending in
    let rec scan start =
      match String.index_from_opt s start '\n' with
      | None ->
        Buffer.clear pending;
        Buffer.add_string pending (String.sub s start (String.length s - start))
      | Some nl ->
        let line = String.sub s start (nl - start) in
        (match Protocol.parse_response line with
        | Ok r -> (
          match Hashtbl.find_opt index r.Protocol.rid with
          | Some i when Float.is_nan recv.(i) ->
            recv.(i) <- now_s () -. t0;
            resp.(i) <- line;
            incr received
          | _ -> ())
        | Error _ -> ());
        scan (nl + 1)
    in
    scan 0
  in
  while !received < n do
    let now = now_s () -. t0 in
    if now > last_due +. 120.0 then failwith "service_mix: replies stopped arriving";
    if !next < n && reqs.(!next).due <= now then begin
      let r = reqs.(!next) in
      write_all fd (r.line ^ "\n") 0;
      sent.(!next) <- now_s () -. t0;
      incr next
    end
    else begin
      let timeout =
        if !next < n then Float.max 0.0 (reqs.(!next).due -. now) else 1.0
      in
      match Unix.select [ fd ] [] [] timeout with
      | [], _, _ -> ()
      | _ ->
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k = 0 then failwith "service_mix: server closed the connection";
        Buffer.add_subbytes pending chunk 0 k;
        take_lines ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  { sent; recv; resp }

let latency_ms reqs res i = (res.recv.(i) -. reqs.(i).due) *. 1000.0

let late_ms reqs res i = (res.sent.(i) -. reqs.(i).due) *. 1000.0

(* the bytes after the echoed id: a hit must equal the set-up answer *)
let after_id line =
  match String.index_opt line ',' with
  | Some i -> String.sub line i (String.length line - i)
  | None -> line

let is_ok line = match Protocol.parse_response line with Ok r -> r.Protocol.ok | Error _ -> false

(* One request/response exchange on the connection (set-up, stats, the
   closed-loop sweep). Nothing else is outstanding, so the reply is the
   only line that arrives and its newline ends the last chunk read. *)
let exchange fd line =
  write_all fd (line ^ "\n") 0;
  let b = Buffer.create 4096 and c = Bytes.create 65536 in
  let rec loop () =
    match Unix.read fd c 0 (Bytes.length c) with
    | 0 -> failwith "service_mix: server closed the connection"
    | k ->
      Buffer.add_subbytes b c 0 k;
      if Bytes.get c (k - 1) = '\n' then Buffer.sub b 0 (Buffer.length b - 1) else loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* ---- max rate -------------------------------------------------------- *)

type level = {
  rate : float;
  p99_ms : float;
  drain_ms : float;  (** last reply after the last due time *)
  all_ok : bool;
}

let meets ~limit l = l.all_ok && l.p99_ms <= limit && l.drain_ms <= limit

(* Highest rate meeting the limit: linear interpolation of the p99 curve
   between the highest level that meets it and the level after it. The
   ramp only stops after two misses in a row, so one level spoiled by a
   host stall does not end it early. *)
let max_rate ~limit levels =
  let rec best acc = function
    | a :: (b :: _ as rest) -> best (if meets ~limit a && not (meets ~limit b) then Some (a, b) else acc) rest
    | [ _ ] | [] -> acc
  in
  match (levels, best None levels) with
  | [], _ -> (nan, "no levels")
  | first :: _, _ when not (List.exists (meets ~limit) levels) ->
    (first.rate *. Float.min 1.0 (limit /. first.p99_ms), "no level met the limit")
  | _, None -> ((List.nth levels (List.length levels - 1)).rate, "every level met the limit; lower bound")
  | _, Some (a, b) ->
    if b.all_ok && b.p99_ms > limit then
      ( a.rate +. ((limit -. a.p99_ms) *. (b.rate -. a.rate) /. (b.p99_ms -. a.p99_ms)),
        Printf.sprintf "p99 crosses %.0f ms between %.1f and %.1f rps" limit a.rate b.rate )
    else (a.rate, "backlog or failures at the next level")

(* ---- per-layer, in process ------------------------------------------- *)

let stats_cache fd =
  let line = exchange fd "{\"id\":0,\"cmd\":\"stats\"}" in
  match Protocol.parse_response line with
  | Ok r -> Json.member "cache" r.Protocol.result
  | Error e -> failwith ("stats: " ^ e)

let cache_int c k = Json.to_int (Json.member k c)

(* Percentile from a registry histogram: the bucket holding the rank,
   interpolated linearly inside it. *)
let histogram_percentile q h =
  let buckets =
    List.map
      (fun b -> (Json.to_float (Json.member "le" b), Json.to_int (Json.member "count" b)))
      (Json.to_list (Json.member "buckets" h))
  in
  let total = Json.to_int (Json.member "count" h) in
  let rank = q *. float_of_int total in
  let rec go lo acc = function
    | [] -> lo
    | (le, c) :: rest ->
      if float_of_int (acc + c) >= rank && c > 0 then
        lo +. ((le -. lo) *. (rank -. float_of_int acc) /. float_of_int c)
      else go le (acc + c) rest
  in
  if total = 0 then 0.0 else go 0.0 0 buckets

(* ---- the workload ---------------------------------------------------- *)

(* set-ups before the fixed-rate phase (the last one's server is used)
   and, in untraced runs, after the sweep *)
let setup_reps_before = 3

let setup_reps_after = 2

(* the encoded [result] payload of a success line *)
let result_of_line line =
  let key = ",\"result\":" in
  let rec find i =
    if i + String.length key > String.length line then None
    else if String.sub line i (String.length key) = key then Some (i + String.length key)
    else find (i + 1)
  in
  match find 0 with
  | Some s -> Some (String.sub line s (String.length line - s - 1))
  | None -> None

let timed ~id name f = Spans.span ~id name (fun () -> time f)

let run ~seed ~seconds ~trace ~server:exe ~p99_limit_ms =
  let metrics_file =
    if trace then Some (Filename.concat out_dir "service_mix-server-metrics.json") else None
  in
  (* starts a server and answers the repeat set once on it *)
  let start_warm ~metrics_file repeat_bodies =
    let srv, fd = start_server ~exe ~metrics_file in
    try (srv, fd, Array.mapi (fun k b -> exchange fd (line_of ~id:(k + 1) b)) repeat_bodies)
    with e ->
      Unix.close fd;
      stop_server srv;
      raise e
  in
  (* Set-up: generate the request netlists and schedules, start the
     server and answer the repeat set once. Done [setup_reps_before] times
     (every server but the last is stopped again) and [setup_reps_after]
     times after the sweep, so that the repeats span the run; the median
     is reported. *)
  let setup () =
    let repeat_bodies =
      Array.init repeat_set (fun k ->
          body (netlist ~name:(Printf.sprintf "r%d" k) ~seed:((seed * 1_000_003) + k)))
    in
    let misses = ref 0 in
    let fresh () =
      let k = !misses in
      incr misses;
      (k, body (netlist ~name:(Printf.sprintf "m%d" k) ~seed:((seed * 1_000_003) + 500_000 + k)))
    in
    let rng = Rng.derive ~base:seed ~index:7 in
    let main =
      schedule ~rng ~rate ~duration:(float_of_int seconds) ~min_hits ~min_misses
        ~first_id:1_000 ~repeat_bodies ~fresh
    in
    (* the sweep's order and mix; its due times are not used *)
    let sweep =
      schedule ~rng ~rate ~duration:0.0 ~min_hits:sweep_hits ~min_misses:sweep_misses
        ~first_id:50_000 ~repeat_bodies ~fresh
    in
    (* ramp inputs are generated just before their level runs *)
    let levels =
      List.mapi
        (fun j m ->
          ( rate *. m,
            fun () ->
              schedule ~rng ~rate:(rate *. m) ~duration:0.0
                ~min_hits:(int_of_float (hit_share *. float_of_int level_requests))
                ~min_misses:(int_of_float ((1.0 -. hit_share) *. float_of_int level_requests))
                ~first_id:(100_000 * (j + 1)) ~repeat_bodies ~fresh ))
        ramp
    in
    let started = now_s () in
    let srv, fd, answers = start_warm ~metrics_file repeat_bodies in
    (main, sweep, levels, repeat_bodies, srv, fd, answers, started)
  in
  let discard (_, _, _, _, srv, fd, _, _) =
    Unix.close fd;
    stop_server srv
  in
  let rec setups k acc =
    let r, dt = time setup in
    if k = 1 then (r, dt :: acc)
    else begin
      discard r;
      setups (k - 1) (dt :: acc)
    end
  in
  let (main, sweep, levels, repeat_bodies, srv, fd, answers, started), setup_times =
    setups setup_reps_before []
  in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      stop_server srv
    end
  in
  Fun.protect ~finally:stop @@ fun () ->
  let failures = ref [] in
  let failed_ids = Hashtbl.create 16 in
  let fail id fmt =
    Printf.ksprintf
      (fun s ->
        Hashtbl.replace failed_ids id ();
        failures := s :: !failures)
      fmt
  in
  Array.iteri (fun k a -> if not (is_ok a) then fail (k + 1) "set-up answer r%d is not ok" k) answers;
  let answer_tail = Array.map after_id answers in
  let check (reqs : req array) resp =
    Array.iteri
      (fun i r ->
        let line = resp.(i) in
        if not (is_ok line) then
          fail r.id "request %d not ok: %s" r.id (String.sub line 0 (min 200 (String.length line)))
        else if r.hit && after_id line <> answer_tail.(r.key) then
          fail r.id "request %d (repeat r%d) differs from its set-up answer" r.id r.key)
      reqs
  in
  let level_of ~rate (reqs : req array) res =
    let n = Array.length reqs in
    {
      rate;
      p99_ms = percentile 0.99 (List.init n (latency_ms reqs res));
      drain_ms = (Array.fold_left Float.max 0.0 res.recv -. reqs.(n - 1).due) *. 1000.0;
      all_ok = Array.for_all is_ok res.resp;
    }
  in
  let invalid = ref None in
  (* the generator has fallen behind when its lateness p99 is a quarter of
     the limit: the offered load is then no longer the stated one *)
  let max_late_ms = p99_limit_ms /. 4.0 in
  let check_late what (reqs : req array) res =
    let late = percentile 0.99 (List.init (Array.length reqs) (late_ms reqs res)) in
    if late > max_late_ms && !invalid = None then
      invalid :=
        Some (Printf.sprintf "load generator fell behind (%s): lateness p99 %.2f ms" what late);
    late
  in
  (* Every repeat must be a cache read and every never-seen request a
     miss: a repeat the server recomputes (a broken key, an eviction) is
     still byte-identical, so only the server's own counters show it. *)
  let check_cache what (reqs : req array) before after =
    let delta k = cache_int after k - cache_int before k in
    let hits = Array.fold_left (fun n r -> if r.hit then n + 1 else n) 0 reqs in
    let misses = Array.length reqs - hits in
    if delta "hits" <> hits || delta "misses" <> misses then
      fail (-1) "%s: server counted %d cache hits and %d misses for %d repeats and %d \
                 never-seen requests"
        what (delta "hits") (delta "misses") hits misses
  in
  (* the fixed-rate phase *)
  let cache_before = stats_cache fd in
  let res = drive fd main in
  let main_end = now_s () in
  let cache_after = stats_cache fd in
  check main res.resp;
  check_cache "fixed rate" main cache_before cache_after;
  let late_p99 = check_late "fixed rate" main res in
  let lat sel =
    List.filter_map
      (fun i -> if sel main.(i) then Some (latency_ms main res i) else None)
      (List.init (Array.length main) Fun.id)
  in
  let hits = lat (fun r -> r.hit) and misses = lat (fun r -> not r.hit) in
  let main_level = level_of ~rate main res in
  (* the closed-loop sweep (untraced runs only) *)
  let sweep_resp, sweep_s =
    if trace then ([||], nan)
    else begin
      let before = stats_cache fd in
      let resp, dt = time (fun () -> Array.map (fun r -> exchange fd r.line) sweep) in
      check sweep resp;
      check_cache "sweep" sweep before (stats_cache fd);
      (resp, dt)
    end
  in
  let rss = peak_rss_mb ~pid:srv.pid () in
  let setup_times =
    if trace then setup_times
    else
      setup_times
      @ List.init setup_reps_after (fun _ ->
            let r, dt = time setup in
            discard r;
            dt)
  in
  if trace then Dpa_obs.Trace.start ();
  (* a seeded sample of misses, recomputed in process after the run *)
  let sample_rng = Rng.derive ~base:seed ~index:11 in
  let miss_idx =
    Array.of_list (List.filter (fun i -> not main.(i).hit) (List.init (Array.length main) Fun.id))
  in
  let exec_ms =
    List.init (if trace then 20 else 8) (fun _ ->
        let i = Rng.pick sample_rng miss_idx in
        let r = main.(i) in
        match Protocol.parse_request r.line with
        | Error _ ->
          fail r.id "miss %d does not parse" r.id;
          nan
        | Ok env ->
          let result, dt =
            timed ~id:r.id "service.execute" (fun () ->
                Dpa_service.Handler.execute env.Protocol.request)
          in
          if Protocol.ok_response ~id:r.id ~cmd:"compare" result <> res.resp.(i) then
            fail r.id "miss %d differs from an in-process recomputation" r.id;
          dt *. 1000.0)
  in
  let n_sweep = Array.length sweep_resp in
  let n_sweep_hits = Array.fold_left (fun n r -> if r.hit then n + 1 else n) 0 sweep in
  Printf.printf "fixed rate %.1f rps: %d requests (%d hits, %d misses), lateness p99 %.2f ms\n"
    rate (Array.length main) (List.length hits) (List.length misses) late_p99;
  let pct name q xs =
    let n = List.length xs in
    Printf.printf "  %s %.3f ms (n=%d, %d beyond)\n" name (percentile q xs) n (beyond q n)
  in
  pct "hit p50" 0.5 hits;
  pct "hit p99" 0.99 hits;
  pct "miss p50" 0.5 misses;
  pct "miss p90" 0.9 misses;
  if not trace then
    Printf.printf "closed-loop sweep: %d requests (%d hits, %d misses) in %.3f s\n" n_sweep
      n_sweep_hits (n_sweep - n_sweep_hits) sweep_s;
  (* the Table-1 quantities over every distinct netlist answered *)
  let never_seen (reqs : req array) resp =
    List.filter_map
      (fun i -> if reqs.(i).hit then None else Some resp.(i))
      (List.init (Array.length resp) Fun.id)
  in
  let quality =
    Array.to_list answers @ never_seen main res.resp
    @ (if trace then [] else never_seen sweep sweep_resp)
    |> List.filter_map (fun line ->
           match Protocol.parse_response line with
           | Ok r when r.Protocol.ok -> Some r.Protocol.result
           | _ -> None)
  in
  let field r side k = Json.member k (Json.member side r) in
  let total side k = List.fold_left (fun acc r -> acc +. Json.to_float (field r side k)) 0.0 quality in
  let mp_ratio = total "mp" "power" /. total "ma" "power" in
  let area_ratio =
    geomean
      (List.map
         (fun r -> Json.to_float (field r "mp" "size") /. Json.to_float (field r "ma" "size"))
         quality)
  in
  let bdd_cones, all_cones =
    List.fold_left
      (fun (b, a) r ->
        let n = Json.to_int (Json.member "n_po" r) in
        let by_bdd =
          match Json.to_string (field r "mp" "degradation") with
          | "exact" -> n
          | l -> Scanf.sscanf l "%dex+%dre+%dsim" (fun ex re _ -> ex + re)
        in
        (b + by_bdd, a + n))
      (0, 0) quality
  in
  let outcome ~attempted metrics =
    {
      attempted;
      failed = Hashtbl.length failed_ids;
      invalid = !invalid;
      failures = List.rev !failures;
      metrics;
    }
  in
  if not trace then begin
    let attempted = Array.length main + n_sweep in
    let failed = Hashtbl.length failed_ids in
    outcome ~attempted
      [
        metric "setup_s" "s" (median setup_times)
          ~note:
            (Printf.sprintf "median of %d set-ups: %s" (List.length setup_times)
               (String.concat ", " (List.map (Printf.sprintf "%.3f") setup_times)));
        metric "sweep_s" "s" sweep_s
          ~note:
            (Printf.sprintf "%d requests closed loop, %d never seen" n_sweep
               (n_sweep - n_sweep_hits));
        metric "peak_rss_mb" "MB" rss ~note:"server process";
        metric "ok_frac" "ratio" (1.0 -. ratio failed attempted)
          ~note:(Printf.sprintf "%d of %d requests failed a check" failed attempted);
        metric "mp_power_ratio" "ratio" mp_ratio
          ~note:(Printf.sprintf "total MP / total MA power over %d netlists" (List.length quality));
        metric "mp_area_ratio" "ratio" area_ratio ~note:"geomean MP/MA cells";
        metric "exact_cone_frac" "ratio" (ratio bdd_cones all_cones)
          ~note:(Printf.sprintf "%d of %d final MP cones by BDD" bdd_cones all_cones);
      ]
  end
  else begin
    (* the hit path, call by call, on a sample of repeat requests *)
    let cache = Dpa_service.Rescache.create ~max_bytes:(64 lsl 20) ~max_entries:4096 () in
    let hit_idx =
      Array.of_list (List.filter (fun i -> main.(i).hit) (List.init (Array.length main) Fun.id))
    in
    let stored = Array.make repeat_set false in
    let parse_us = ref [] and hash_us = ref [] and find_us = ref [] and encode_us = ref [] in
    let us dt = dt *. 1e6 in
    for _ = 1 to 200 do
      let i = Rng.pick sample_rng hit_idx in
      let r = main.(i) in
      match timed ~id:r.id "service.parse" (fun () -> Protocol.parse_request r.line) with
      | Error _, _ -> fail r.id "repeat %d does not parse" r.id
      | Ok env, dt_parse -> (
        let key, dt_hash =
          timed ~id:r.id "logic.struct_hash" (fun () ->
              Dpa_service.Rescache.key ~pooled:true env.Protocol.request)
        in
        match (key, result_of_line answers.(r.key)) with
        | Some key, Some payload ->
          if not stored.(r.key) then begin
            Dpa_service.Rescache.store cache ~key ~cmd:"compare" ~result:payload;
            stored.(r.key) <- true
          end;
          let found, dt_find =
            timed ~id:r.id "service.cache_find" (fun () -> Dpa_service.Rescache.find cache key)
          in
          let line, dt_encode =
            timed ~id:r.id "service.encode" (fun () ->
                Protocol.ok_response_text ~id:r.id ~cmd:"compare" (Option.get found))
          in
          if line <> res.resp.(i) then
            fail r.id "repeat %d: in-process hit path differs from the server's reply" r.id;
          parse_us := us dt_parse :: !parse_us;
          hash_us := us dt_hash :: !hash_us;
          find_us := us dt_find :: !find_us;
          encode_us := us dt_encode :: !encode_us
        | _ -> fail r.id "repeat %d has no cache key or payload" r.id)
    done;
    Dpa_obs.Trace.stop ();
    (* the server writes its --metrics file as it exits *)
    stop ();
    (* The ramp runs on a fresh server, so the queue-wait histogram above
       covers the fixed-rate phase only. It stops after two levels in a
       row miss the limit. *)
    let ramp_run =
      let srv2, fd2, answers2 = start_warm ~metrics_file:None repeat_bodies in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd2 with Unix.Unix_error _ -> ());
          stop_server srv2)
        (fun () ->
          Array.iteri
            (fun k a ->
              if after_id a <> answer_tail.(k) then
                fail (k + 1) "repeat r%d: the ramp server's answer differs from set-up" k)
            answers2;
          let rec go acc missed = function
            | [] -> List.rev acc
            | (r, make) :: rest ->
              let reqs = make () in
              let before = stats_cache fd2 in
              let res = drive fd2 reqs in
              check reqs res.resp;
              check_cache (Printf.sprintf "%.0f rps" r) reqs before (stats_cache fd2);
              ignore (check_late (Printf.sprintf "%.0f rps" r) reqs res);
              let l = level_of ~rate:r reqs res in
              let acc = (reqs, l) :: acc in
              if meets ~limit:p99_limit_ms l then go acc 0 rest
              else if missed = 1 then List.rev acc
              else go acc 1 rest
          in
          go [] 0 levels)
    in
    let ramp_levels = List.map snd ramp_run in
    List.iter
      (fun l ->
        Printf.printf "  level %7.1f rps: p99 %9.2f ms, drain %8.2f ms, %s\n" l.rate l.p99_ms
          l.drain_ms
          (if meets ~limit:p99_limit_ms l then "meets the limit" else "misses the limit"))
      (main_level :: ramp_levels);
    let mr, why = max_rate ~limit:p99_limit_ms (main_level :: ramp_levels) in
    Printf.printf "max rate %.1f rps (p99 limit %.0f ms): %s\n" mr p99_limit_ms why;
    let layers = new_layer_table () in
    let c k = float_of_int (cache_int cache_after k - cache_int cache_before k) in
    let m =
      match metrics_file with
      | Some f -> Json.parse (Dpa_logic.Io.read_file f)
      | None -> Json.Null
    in
    let wait = Json.member "service.queue.wait_ms" (Json.member "histograms" m) in
    let busy_us =
      Json.to_float (Json.member "service.worker.busy_us" (Json.member "counters" m))
    in
    List.iter
      (fun (n, v) -> layer_set layers n v)
      [
        ("service.parse_us", median !parse_us);
        ("logic.struct_hash_us", median !hash_us);
        ("service.cache_find_us", median !find_us);
        ("service.encode_us", median !encode_us);
        ("service.execute_ms", median exec_ms);
        ("service.queue_wait_p50_ms", histogram_percentile 0.5 wait);
        ("service.queue_wait_p99_ms", histogram_percentile 0.99 wait);
        ("service.cache_hits", c "hits");
        ("service.cache_misses", c "misses");
        ("service.cache_hit_ratio", c "hits" /. (c "hits" +. c "misses"));
        ("service.cache_evictions", c "evictions");
        ("service.worker_busy_frac", busy_us /. 1e6 /. (main_end -. started));
        ("loadgen.late_p99_ms", late_p99);
        ("loadgen.hit_p50_ms", median hits);
        ("loadgen.hit_p99_ms", percentile 0.99 hits);
        ("loadgen.miss_p50_ms", median misses);
        ("loadgen.miss_p90_ms", percentile 0.9 misses);
        ("loadgen.max_rate_rps", mr);
      ];
    Spans.write ~workload:"service_mix" (Spans.self_times ()) ~extra:"";
    let attempted =
      List.fold_left (fun acc (reqs, _) -> acc + Array.length reqs) (Array.length main) ramp_run
    in
    outcome ~attempted (layer_metric_list layers)
  end
