(** See serve.mli.  Layout: protocol types and JSON helpers, then
    admission (parse/validate/compile on the main thread), then the
    batch executor on the domain pool, then the transports. *)

module J = Obs.Json
module CE = Minic.Compile_eval

(* {1 Configuration} *)

type config = {
  jobs : int option;
  batch : int;
  max_fuel : int;
  max_time : float option;
  timings : bool;
}

(* the fuel<->seconds exchange rate for --max-time: the compiled
   engine retires statements at this order of magnitude on commodity
   hosts, and the budget only needs to be the right power of ten *)
let fuel_per_second = 2_000_000

let default_config =
  {
    jobs = None;
    batch = 8;
    max_fuel = 10_000_000;
    max_time = None;
    timings = false;
  }

(* {1 Protocol} *)

(* Error codes, with the "exit status" each would map to under the
   CLI's conventions: malformed input 2, execution failure 1. *)
let status_of_code = function
  | "bad_json" | "bad_request" | "unknown_cmd" | "parse_error"
  | "type_error" | "unknown_benchmark" ->
      2
  | _ -> 1 (* budget_exhausted, runtime_error *)

type action =
  | A_run of { compiled : CE.compiled; fuel : int }
  | A_optimize of { prog : Minic.Ast.program }
  | A_check of { prog : Minic.Ast.program; fuel : int }
  | A_simulate of {
      bench : string;
      w : Workloads.Workload.t;
      variant_name : string;
      variant : Comp.variant;
    }

type work = {
  w_seq : int;  (** arrival index; response emission order *)
  w_id : J.t;  (** echoed back; client's ["id"] or the sequence number *)
  w_cmd : string;
  w_action : action;
  w_enqueued : float;  (** wall clock at admission; used only for timings *)
}

type t = {
  cfg : config;
  cache : CE.Source_cache.t;
  sink : Obs.t;
      (** per-request sinks absorbed here, in request order: totals
          only, no spans, so the sink stays the same size with uptime *)
  responses : (int, string) Hashtbl.t;  (** completed, not yet emittable *)
  mutable seq : int;
  mutable next_emit : int;
  mutable pending : work list;  (** newest first *)
  mutable npending : int;
  mutable stop : bool;
  mutable served_ok : int;
  mutable served_err : int;
  mutable lats : float list;  (** newest first *)
}

let create ?(config = default_config) () =
  {
    cfg = config;
    cache = CE.Source_cache.create ();
    sink = Obs.create ();
    responses = Hashtbl.create 64;
    seq = 0;
    next_emit = 1;
    pending = [];
    npending = 0;
    stop = false;
    served_ok = 0;
    served_err = 0;
    lats = [];
  }

let obs t = t.sink
let cache_hits t = CE.Source_cache.hits t.cache
let cache_misses t = CE.Source_cache.misses t.cache
let latencies t = List.rev t.lats
let shutdown_requested t = t.stop

(* {1 Response construction} *)

let counters_json o =
  J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Obs.counters o))

let ok_line ~id ~cmd ~o fields =
  J.to_string
    (J.Obj
       (("id", id) :: ("ok", J.Bool true) :: ("cmd", J.String cmd)
       :: ("status", J.Int 0) :: fields
       @ [ ("counters", counters_json o) ]))

let err_line ~id ~o code msg =
  J.to_string
    (J.Obj
       [
         ("id", id);
         ("ok", J.Bool false);
         ("error", J.String code);
         ("status", J.Int (status_of_code code));
         ("message", J.String msg);
         ("counters", counters_json o);
       ])

(* {1 Emission: strictly in request order} *)

let drain t =
  let rec go acc =
    match Hashtbl.find_opt t.responses t.next_emit with
    | Some line ->
        Hashtbl.remove t.responses t.next_emit;
        t.next_emit <- t.next_emit + 1;
        go (line :: acc)
    | None -> List.rev acc
  in
  go []

let buffer t seq line = Hashtbl.replace t.responses seq line

(* An admission-time rejection: executed nowhere, responded
   immediately (though emission still waits its turn). *)
let reject t ~seq ~id code msg =
  let o = Obs.create () in
  Obs.incr o "serve.requests";
  Obs.incr o "serve.errors";
  Obs.incr o ("serve.err." ^ code);
  let line = err_line ~id ~o code msg in
  Obs.absorb t.sink o;
  t.served_err <- t.served_err + 1;
  buffer t seq line

(* {1 Request execution (worker side)}

   Runs on a pool domain; must never raise and must touch no server
   state.  Everything it observes lands in a private sink, returned
   for in-order absorbing. *)

let stats_json (s : Minic.Interp.stats) =
  J.Obj
    [
      ("offloads", J.Int s.Minic.Interp.offloads);
      ("transfers", J.Int s.Minic.Interp.transfers);
      ("cells_h2d", J.Int s.Minic.Interp.cells_h2d);
      ("cells_d2h", J.Int s.Minic.Interp.cells_d2h);
      ("mic_alloc_cells", J.Int s.Minic.Interp.mic_alloc_cells);
    ]

let applied_json (a : Comp.applied) =
  J.Obj
    [
      ("offloads_inserted", J.Int a.Comp.offloads_inserted);
      ("shared_rewritten", J.Int a.Comp.shared_rewritten);
      ("regularized", J.Int (List.length a.Comp.regularized));
      ("merged", J.Int a.Comp.merged);
      ("streamed", J.Int a.Comp.streamed);
      ("vectorized", J.Int a.Comp.vectorized);
      ("resident", J.Int a.Comp.resident);
    ]

let exec (wk : work) =
  let o = Obs.create () in
  Obs.incr o "serve.requests";
  Obs.incr o ("serve.cmd." ^ wk.w_cmd);
  let result =
    try
      match wk.w_action with
      | A_run { compiled; fuel } -> (
          match CE.exec ~fuel compiled with
          | Ok out ->
              Obs.observe o "serve.work"
                (float_of_int out.Minic.Interp.work);
              Obs.observe o "serve.output_bytes"
                (float_of_int (String.length out.Minic.Interp.output));
              Ok
                [
                  ("output", J.String out.Minic.Interp.output);
                  ("work", J.Int out.Minic.Interp.work);
                  ("stats", stats_json out.Minic.Interp.stats);
                ]
          | Error e when String.equal e "out of fuel" ->
              Obs.incr o "serve.fuel_killed";
              Error
                ( "budget_exhausted",
                  Printf.sprintf
                    "execution exceeded its budget of %d statements" fuel )
          | Error e -> Error ("runtime_error", e))
      | A_optimize { prog } ->
          let prog', applied = Comp.optimize ~obs:o prog in
          let text = Minic.Pretty.program_to_string prog' in
          Obs.observe o "serve.output_bytes"
            (float_of_int (String.length text));
          Ok
            [ ("program", J.String text); ("applied", applied_json applied) ]
      | A_check { prog; fuel } ->
          let reports = Check.check_program ~fuel prog in
          let report_json (r : Check.report) =
            let ok = Check.verdict_ok r.Check.transform r.Check.verdict in
            J.Obj
              [
                ("transform", J.String (Check.transform_name r.Check.transform));
                ("sites", J.Int r.Check.sites);
                ("verdict", J.String (Check.verdict_str r.Check.verdict));
                ("ok", J.Bool ok);
              ]
          in
          let pass =
            List.for_all
              (fun (r : Check.report) ->
                Check.verdict_ok r.Check.transform r.Check.verdict)
              reports
          in
          if not pass then Obs.incr o "serve.check_failed";
          Ok
            [
              ("pass", J.Bool pass);
              ("reports", J.List (List.map report_json reports));
            ]
      | A_simulate { bench; w; variant_name; variant } ->
          let seconds = Comp.simulate ~obs:o w variant in
          Ok
            [
              ("bench", J.String bench);
              ("variant", J.String variant_name);
              ("seconds", J.Float seconds);
            ]
    with e -> Error ("runtime_error", Printexc.to_string e)
  in
  match result with
  | Ok fields ->
      Obs.incr o "serve.ok";
      (ok_line ~id:wk.w_id ~cmd:wk.w_cmd ~o fields, true, o)
  | Error (code, msg) ->
      Obs.incr o "serve.errors";
      Obs.incr o ("serve.err." ^ code);
      (err_line ~id:wk.w_id ~o code msg, false, o)

(* {1 Batch flush}

   Cuts the queue into one pool submission.  The batch boundary is a
   sequence point: it depends on the request stream, [batch] and when
   the input pauses, never on pool width, so for given cuts absorbs
   (and hence [stats]) are width-independent. *)

(* Estimated statement cost of one queued request.  A batch whose
   estimated work is below [inline_threshold_stmts] runs inline on the
   serving domain (identical to the pool at [jobs = 1], so responses
   stay byte-identical at every width).  The bypass is kept for
   tail latency, not to avoid domain spawns (the pool reuses parked
   helpers).  Over 6 alternating pairs of the benchmark's [serve]
   workload on a 2-vCPU host, with batches cut whenever input pauses
   (mean size about 3.5), removing it raised median throughput 6%
   (3847 vs 3641 req/s; 10% in the 3 pairs without CPU steal) and
   left latency unresolved: p50 0.377 vs 0.344 ms, p99 12.9 vs
   10.5 ms, with runs at 25 and 31 ms against at most 13.5 ms with
   the bypass.  The estimate reads only the daemon sink, whose state
   at a batch boundary is width-independent. *)
let estimate_stmts t (wk : work) =
  let run_estimate () =
    match Obs.histogram t.sink "serve.work" with
    | Some h ->
        let m = Obs.mean h in
        if Float.is_finite m then max 1 (int_of_float m) else 1_000
    | None -> 1_000
  in
  match wk.w_action with
  | A_run _ -> run_estimate ()
  | A_check _ ->
      (* differential runs of every applicable transform pair *)
      24 * run_estimate ()
  | A_optimize _ -> 4_000
  | A_simulate _ -> 2_000

let inline_threshold_stmts = 50_000

let flush_queue t =
  if t.npending > 0 then begin
    let items = Array.of_list (List.rev t.pending) in
    t.pending <- [];
    t.npending <- 0;
    Obs.observe t.sink "serve.batch" (float_of_int (Array.length items));
    let estimated =
      Array.fold_left (fun acc it -> acc + estimate_stmts t it) 0 items
    in
    let results =
      if estimated < inline_threshold_stmts then begin
        Obs.incr t.sink "serve.inline_batches";
        Array.to_list (Array.map exec items)
      end
      else begin
        Obs.incr t.sink "serve.pooled_batches";
        Parallel.run ?jobs:t.cfg.jobs (Array.length items) (fun i ->
            exec items.(i))
      end
    in
    List.iteri
      (fun i (line, ok, o) ->
        Obs.absorb t.sink o;
        if ok then t.served_ok <- t.served_ok + 1
        else t.served_err <- t.served_err + 1;
        if t.cfg.timings then
          t.lats <- (Unix.gettimeofday () -. items.(i).w_enqueued) :: t.lats;
        buffer t items.(i).w_seq line)
      results
  end

(* {1 Admission (main thread)}

   Parse, validate, resolve through the shared compile cache, and
   queue — all serially, so cache hit/miss counts are deterministic. *)

let get_member name j = J.member name j

let opt_int ~what = function
  | None -> Ok None
  | Some (J.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "%s must be an integer" what)

let opt_string ~what = function
  | None -> Ok None
  | Some (J.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "%s must be a string" what)

let effective_fuel cfg requested =
  let f =
    match requested with
    | Some r -> min r cfg.max_fuel
    | None -> cfg.max_fuel
  in
  match cfg.max_time with
  | None -> f
  | Some s ->
      (* compared as floats, so a budget past [max_int] saturates
         instead of overflowing [int_of_float] *)
      let budget = s *. float_of_int fuel_per_second in
      if budget >= float_of_int f then f else max 1 (int_of_float budget)

let front_end_error = function
  | CE.Source_cache.Parse_error e -> ("parse_error", e)
  | CE.Source_cache.Type_error e -> ("type_error", e)

(* Resolve a request into an action, or a typed rejection. *)
let resolve t ~cmd ~src ~bench ~fuel ~variant =
  let need_src k =
    match (src, bench) with
    | Some s, None -> Ok (k s)
    | None, _ -> Error ("bad_request", cmd ^ " requires \"src\"")
    | Some _, Some _ ->
        Error ("bad_request", "give \"src\" or \"bench\", not both")
  in
  match cmd with
  | "run" -> (
      let source =
        match (src, bench) with
        | Some s, None -> Ok s
        | None, Some b -> (
            match Workloads.Registry.find b with
            | Some w ->
                Ok (Minic.Pretty.program_to_string (Workloads.Workload.program w))
            | None ->
                Error
                  ( "unknown_benchmark",
                    Printf.sprintf "unknown benchmark %s (known: %s)" b
                      (String.concat " " Workloads.Registry.names) ))
        | None, None ->
            Error ("bad_request", "run requires \"src\" or \"bench\"")
        | Some _, Some _ ->
            Error ("bad_request", "give \"src\" or \"bench\", not both")
      in
      match source with
      | Error e -> Error e
      | Ok s -> (
          match CE.Source_cache.get t.cache s with
          | Error e -> Error (front_end_error e)
          | Ok (_, compiled) ->
              Ok (A_run { compiled; fuel = effective_fuel t.cfg fuel })))
  | "optimize" ->
      Result.bind
        (need_src (fun s -> s))
        (fun s ->
          match CE.Source_cache.get t.cache s with
          | Error e -> Error (front_end_error e)
          | Ok (prog, _) -> Ok (A_optimize { prog }))
  | "check" ->
      Result.bind
        (need_src (fun s -> s))
        (fun s ->
          match CE.Source_cache.get t.cache s with
          | Error e -> Error (front_end_error e)
          | Ok (prog, _) ->
              Ok (A_check { prog; fuel = effective_fuel t.cfg fuel }))
  | "simulate" -> (
      match (bench, src) with
      | None, _ -> Error ("bad_request", "simulate requires \"bench\"")
      | Some _, Some _ ->
          Error ("bad_request", "simulate takes \"bench\", not \"src\"")
      | Some b, None -> (
          match Workloads.Registry.find b with
          | None ->
              Error
                ( "unknown_benchmark",
                  Printf.sprintf "unknown benchmark %s (known: %s)" b
                    (String.concat " " Workloads.Registry.names) )
          | Some w -> (
              let variant_name =
                Option.value variant ~default:"mic-optimized"
              in
              match
                List.assoc_opt variant_name
                  [
                    ("cpu", Comp.Cpu_parallel);
                    ("mic-naive", Comp.Mic_naive);
                    ("mic-optimized", Comp.Mic_optimized);
                  ]
              with
              | None ->
                  Error
                    ( "bad_request",
                      Printf.sprintf
                        "unknown variant %s (known: cpu mic-naive \
                         mic-optimized)"
                        variant_name )
              | Some v ->
                  Ok
                    (A_simulate
                       { bench = b; w; variant_name; variant = v }))))
  | _ ->
      Error
        ( "unknown_cmd",
          Printf.sprintf
            "unknown cmd %s (known: optimize run check simulate stats \
             shutdown)"
            cmd )

(* The [stats] snapshot: everything here is derived from admission
   counts and the daemon sink, which absorbs in request order, so it is
   identical at any pool width. *)
let stats_fields t =
  [
    ("served", J.Int (t.served_ok + t.served_err));
    ("ok", J.Int t.served_ok);
    ("errors", J.Int t.served_err);
    ( "cache",
      J.Obj
        [
          ("hits", J.Int (cache_hits t));
          ("misses", J.Int (cache_misses t));
        ] );
    ("obs", Obs.to_json t.sink);
  ]

let handle_line t line =
  if String.trim line = "" then []
  else begin
    t.seq <- t.seq + 1;
    let seq = t.seq in
    (match J.of_string line with
    | Error e -> reject t ~seq ~id:(J.Int seq) "bad_json" e
    | Ok j -> (
        let id =
          match get_member "id" j with
          | Some (J.Int _ as id) | Some (J.String _ as id) -> id
          | _ -> J.Int seq
        in
        let validated =
          match j with
          | J.Obj _ -> (
              match get_member "cmd" j with
              | Some (J.String cmd) -> (
                  let opts =
                    match get_member "opts" j with
                    | None -> Ok []
                    | Some (J.Obj fields) -> Ok fields
                    | Some _ -> Error "opts must be an object"
                  in
                  match opts with
                  | Error e -> Error ("bad_request", e)
                  | Ok opts -> (
                      let field name = List.assoc_opt name opts in
                      let ( let* ) r f =
                        match r with
                        | Ok v -> f v
                        | Error e -> Error ("bad_request", e)
                      in
                      let* src =
                        opt_string ~what:"\"src\"" (get_member "src" j)
                      in
                      let* bench =
                        opt_string ~what:"\"bench\"" (get_member "bench" j)
                      in
                      let* fuel = opt_int ~what:"opts.fuel" (field "fuel") in
                      let* variant =
                        opt_string ~what:"opts.variant" (field "variant")
                      in
                      match fuel with
                      | Some f when f <= 0 ->
                          Error ("bad_request", "opts.fuel must be positive")
                      | _ -> Ok (cmd, src, bench, fuel, variant)))
              | Some _ -> Error ("bad_request", "\"cmd\" must be a string")
              | None -> Error ("bad_request", "missing \"cmd\""))
          | _ -> Error ("bad_request", "request must be a JSON object")
        in
        match validated with
        | Error (code, msg) -> reject t ~seq ~id code msg
        | Ok ("stats", _, _, _, _) ->
            (* barrier: a stats snapshot reflects every request before it *)
            flush_queue t;
            Obs.incr t.sink "serve.requests";
            Obs.incr t.sink "serve.cmd.stats";
            let o = Obs.create () in
            let line = ok_line ~id ~cmd:"stats" ~o (stats_fields t) in
            t.served_ok <- t.served_ok + 1;
            buffer t seq line
        | Ok ("shutdown", _, _, _, _) ->
            flush_queue t;
            Obs.incr t.sink "serve.requests";
            Obs.incr t.sink "serve.cmd.shutdown";
            t.stop <- true;
            let o = Obs.create () in
            let line =
              ok_line ~id ~cmd:"shutdown" ~o
                [ ("served", J.Int (t.served_ok + t.served_err)) ]
            in
            t.served_ok <- t.served_ok + 1;
            buffer t seq line
        | Ok (cmd, src, bench, fuel, variant) -> (
            match resolve t ~cmd ~src ~bench ~fuel ~variant with
            | Error (code, msg) -> reject t ~seq ~id code msg
            | Ok action ->
                let wk =
                  {
                    w_seq = seq;
                    w_id = id;
                    w_cmd = cmd;
                    w_action = action;
                    w_enqueued =
                      (if t.cfg.timings then Unix.gettimeofday () else 0.);
                  }
                in
                t.pending <- wk :: t.pending;
                t.npending <- t.npending + 1;
                if t.npending >= t.cfg.batch then flush_queue t)));
    drain t
  end

let finish t =
  flush_queue t;
  drain t

(* {1 Transports} *)

module Line_reader = struct
  type t = {
    ic : in_channel;
    fd : Unix.file_descr;
    chunk : Bytes.t;
    lines : string Queue.t;  (** complete lines not yet read *)
    partial : Buffer.t;  (** the unterminated tail of the input so far *)
    mutable eof : bool;
  }

  (* at least the channel's own buffer (64 KiB), so one [input] takes
     everything the channel holds and [select] on the descriptor then
     tells the whole truth *)
  let chunk_size = 65536

  let create ic =
    {
      ic;
      fd = Unix.descr_of_in_channel ic;
      chunk = Bytes.create chunk_size;
      lines = Queue.create ();
      partial = Buffer.create 256;
      eof = false;
    }

  let take_partial r =
    let l = Buffer.contents r.partial in
    Buffer.clear r.partial;
    l

  (* one [input]: it blocks only when the channel holds nothing *)
  let fill r =
    match input r.ic r.chunk 0 chunk_size with
    | 0 ->
        r.eof <- true;
        if Buffer.length r.partial > 0 then Queue.push (take_partial r) r.lines
    | n ->
        let start = ref 0 in
        for i = 0 to n - 1 do
          if Bytes.get r.chunk i = '\n' then begin
            let len = i - !start in
            Queue.push
              (if Buffer.length r.partial = 0 then
                 Bytes.sub_string r.chunk !start len
               else begin
                 Buffer.add_subbytes r.partial r.chunk !start len;
                 take_partial r
               end)
              r.lines;
            start := i + 1
          end
        done;
        Buffer.add_subbytes r.partial r.chunk !start (n - !start)

  let rec read r =
    match Queue.take_opt r.lines with
    | Some _ as line -> line
    | None when r.eof -> None
    | None ->
        fill r;
        read r

  let paused r =
    Queue.is_empty r.lines && (not r.eof)
    &&
    match Unix.select [ r.fd ] [] [] 0. with
    | [], _, _ -> true
    | _ -> false
    (* EINTR, or EINVAL past FD_SETSIZE: dispatching early only makes a
       batch smaller *)
    | exception Unix.Unix_error _ -> true
end

let serve_channels t ic oc =
  let r = Line_reader.create ic in
  let emit = function
    | [] -> ()
    | lines ->
        List.iter
          (fun line ->
            output_string oc line;
            output_char oc '\n')
          lines;
        flush oc
  in
  (* with nothing queued every response is already out, so only a
     queued request needs the pause check *)
  let rec loop () =
    if t.npending > 0 && Line_reader.paused r then begin
      Obs.incr t.sink "serve.paused_batches";
      emit (finish t)
    end;
    match Line_reader.read r with
    | None -> emit (finish t)
    | Some line ->
        emit (handle_line t line);
        if t.stop then emit (finish t) else loop ()
  in
  loop ()

let serve_stdin t = serve_channels t stdin stdout

let serve_socket t ~path =
  (* a client that hangs up before reading its responses must cost only
     its own connection: with SIGPIPE ignored the failed write raises
     [Sys_error], caught below *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let cleanup () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      while not t.stop do
        let conn, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr conn in
        let oc = Unix.out_channel_of_descr conn in
        (try serve_channels t ic oc with Sys_error _ | Unix.Unix_error _ -> ());
        (try flush oc with Sys_error _ -> ());
        try Unix.close conn with Unix.Unix_error _ -> ()
      done)

let client ~path ic oc =
  (* a server that goes away mid-session must surface as a short
     response count, not as a SIGPIPE that kills the client *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec connect tries =
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect s (Unix.ADDR_UNIX path) with
    | () -> s
    | exception Unix.Unix_error _ when tries > 0 ->
        (try Unix.close s with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        connect (tries - 1)
  in
  match connect 100 with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))
  | s ->
      let soc = Unix.out_channel_of_descr s in
      let sic = Unix.in_channel_of_descr s in
      (* Requests go out on a helper domain while this one copies
         responses: the server stops reading while its responses sit
         unread, so sending everything before reading anything
         deadlocks a long session.  The sender reads all of [ic] even
         after the socket fails, to count the requests owed an answer
         (the server answers each non-blank line once).  Each side
         flushes whenever its input pauses, so a request is sent, and
         its response printed, without waiting for more input. *)
      let sender =
        Domain.spawn (fun () ->
            let r = Line_reader.create ic in
            let requests = ref 0 and alive = ref true in
            let rec send () =
              if !alive && Line_reader.paused r then (
                try flush soc with Sys_error _ -> alive := false);
              match Line_reader.read r with
              | None -> ()
              | Some line ->
                  if String.trim line <> "" then incr requests;
                  (if !alive then
                     try
                       output_string soc line;
                       output_char soc '\n'
                     with Sys_error _ -> alive := false);
                  send ()
            in
            send ();
            (try
               flush soc;
               Unix.shutdown s Unix.SHUTDOWN_SEND
             with Sys_error _ | Unix.Unix_error _ -> ());
            !requests)
      in
      let r = Line_reader.create sic in
      let rec copy n =
        if Line_reader.paused r then flush oc;
        match Line_reader.read r with
        | exception Sys_error _ -> n
        | None -> n
        | Some line ->
            output_string oc line;
            output_char oc '\n';
            copy (n + 1)
      in
      let copied =
        match
          let n = copy 0 in
          flush oc;
          n
        with
        | n -> Ok n
        | exception Sys_error e ->
            (* nobody reads [oc] any more: close it, so that no later
               flush retries the failed write *)
            close_out_noerr oc;
            Error e
      in
      (* wake a sender blocked on a socket nobody reads any more *)
      (try Unix.shutdown s Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      let requests = Domain.join sender in
      (try Unix.close s with Unix.Unix_error _ -> ());
      match copied with
      | Error e -> Error ("cannot write responses: " ^ e)
      | Ok n when n = requests -> Ok ()
      | Ok n ->
          Error
            (Printf.sprintf
               "the server closed the connection after %d of %d responses" n
               requests)
