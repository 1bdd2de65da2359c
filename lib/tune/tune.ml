(** Auto-tuned offload configuration search.

    The simulator exposes a per-workload configuration space — how
    many devices to spread blocks over, how many streams per device,
    how many blocks to stream each offload in — and the best point
    shifts with the workload's transfer/compute balance and with the
    fleet's heterogeneity.  This module searches that space:

    - {e exhaustive} for small grids, {e hill} (seeded coordinate
      descent) for large ones, {!Auto} picking by grid size;
    - every candidate is costed by replaying the workload's event
      trace through {!Runtime.Migrate} on the candidate machine;
    - evaluations fan out over {!Parallel}; results are keyed and
      merged in submission order, so the winner is bit-identical at
      any [--jobs] width.  Ties break by lexicographic config order
      ([devices], [streams], [nblocks]) — never by timing;
    - a memo table (plus an optional cross-search {!Cache}) answers
      re-visited points without re-simulation, and a caller-supplied
      integer [keyfn] can alias configs that provably share a trace
      (every [nblocks] of a kernel streaming leaves alone), so the
      search never re-simulates a visited point.

    Search traffic lands in [tune.explored] / [tune.pruned]; the
    shared cache counts [tune.cache.hits] / [tune.cache.misses]. *)

open Machine

(** One point of the space.  The order of fields is the tie-break
    order. *)
type config = { devices : int; streams : int; nblocks : int }

let compare_config a b =
  match Int.compare a.devices b.devices with
  | 0 -> (
      match Int.compare a.streams b.streams with
      | 0 -> Int.compare a.nblocks b.nblocks
      | c -> c)
  | c -> c

let config_to_string c =
  Printf.sprintf "devices=%d,streams=%d,nblocks=%d" c.devices c.streams
    c.nblocks

(** The point every speedup is measured against: the classic one-MIC
    machine at the pipeline's default block count. *)
let default_config =
  { devices = 1; streams = 1; nblocks = Comp.default_nblocks }

type space = {
  sp_devices : int list;
  sp_streams : int list;
  sp_nblocks : int list;
}

(** The paper's grid (10, 20, 40, 50) extended downward — small block
    counts win when the launch overhead dominates — and to the powers
    of two between. *)
let default_nblocks_candidates = [ 1; 2; 4; 5; 8; 10; 16; 20; 32; 40; 50 ]

let space ?(nblocks = default_nblocks_candidates) ~max_devices ~max_streams ()
    =
  let clamp n = max 1 (min Transforms.Block_size.max_blocks n) in
  {
    sp_devices = List.init (max 1 max_devices) (fun i -> i + 1);
    sp_streams = List.init (max 1 max_streams) (fun i -> i + 1);
    (* the default block count always competes, so the tuned point can
       never lose to the untuned one *)
    sp_nblocks =
      List.sort_uniq compare
        (Comp.default_nblocks :: List.map clamp nblocks);
  }

let size sp =
  List.length sp.sp_devices * List.length sp.sp_streams
  * List.length sp.sp_nblocks

type mode = Auto | Exhaustive | Hill

(* grids up to this size are searched exhaustively under [Auto] *)
let exhaustive_threshold = 600

(** Cross-search memo: (workload and machine, trace-key) -> makespan.
    Distinct from the serve [Source_cache]: that one memoizes front-end
    compilation keyed by source text; this one memoizes {e simulator
    evaluations} keyed by what the simulator sees.  Lives as long as
    the caller keeps it (one [compc tune] invocation, one bench
    sweep). *)
module Cache = struct
  type key = string * int
  type t = { tbl : (key, float) Hashtbl.t; obs : Obs.t option }

  let create ?obs () = { tbl = Hashtbl.create 256; obs }
  let bump c name = match c.obs with None -> () | Some o -> Obs.incr o name

  let find c k =
    match Hashtbl.find_opt c.tbl k with
    | Some v ->
        bump c "tune.cache.hits";
        Some v
    | None ->
        bump c "tune.cache.misses";
        None

  let add c k v = Hashtbl.replace c.tbl k v
  let size c = Hashtbl.length c.tbl
end

type point = { pt_config : config; pt_makespan : float }

type report = {
  r_default : point;
  r_best : point;
  r_explored : int;  (** simulator evaluations actually run *)
  r_pruned : int;  (** candidates answered without simulation *)
  r_points : point list;  (** every evaluated point, in config order *)
}

(** [default / best], guarded for degenerate zero-makespan traces. *)
let speedup r =
  if r.r_best.pt_makespan > 0. then
    r.r_default.pt_makespan /. r.r_best.pt_makespan
  else 1.0

module Itbl = Hashtbl.Make (Int)

(* configs are compared field by field and hashed from their integers *)
module Ctbl = Hashtbl.Make (struct
  type t = config

  let equal a b = compare_config a b = 0
  let hash c = (((c.devices * 65599) + c.streams) * 65599) + c.nblocks
end)

let search ?jobs ?obs ?cache ?(cache_prefix = "") ?(mode = Auto)
    ?(seeds = []) (sp : space) ~(eval : config -> float)
    ~(keyfn : config -> int) : report =
  let bump ?(by = 1) name =
    if by > 0 then
      match obs with None -> () | Some o -> Obs.incr ~by o name
  in
  let explored = ref 0 and pruned = ref 0 in
  (* within-search memo, keyed by [keyfn] *)
  let memo : float Itbl.t = Itbl.create 64 in
  let lookup k =
    match Itbl.find_opt memo k with
    | Some v -> Some v
    | None -> (
        match cache with
        | None -> None
        | Some c -> (
            match Cache.find c (cache_prefix, k) with
            | Some v ->
                Itbl.add memo k v;
                Some v
            | None -> None))
  in
  let store k v =
    Itbl.replace memo k v;
    match cache with None -> () | Some c -> Cache.add c (cache_prefix, k) v
  in
  (* every config ever costed, with its makespan; [log] keeps the
     points newest first, and [incumbent] is the fold of [better] over
     them in evaluation order: min makespan, lexicographic config on
     ties *)
  let evaluated : float Ctbl.t = Ctbl.create 64 in
  let log = ref [] in
  let incumbent = ref None in
  let better m c (b : point) =
    m < b.pt_makespan
    || (m = b.pt_makespan && compare_config c b.pt_config < 0)
  in
  let record c m =
    if not (Ctbl.mem evaluated c) then begin
      Ctbl.add evaluated c m;
      let pt = { pt_config = c; pt_makespan = m } in
      log := pt :: !log;
      match !incumbent with
      | Some b when not (better m c b) -> ()
      | _ -> incumbent := Some pt
    end
  in
  (* cost a batch of candidates: config-level and key-level duplicates
     and memo hits are answered in place (counted as pruned); only the
     distinct missing keys fan out over the pool, in first-seen order,
     so the merge is submission-ordered and width-independent.  Each
     fresh config's key is computed once. *)
  let evaluate configs =
    let fresh =
      List.filter_map
        (fun c -> if Ctbl.mem evaluated c then None else Some (c, keyfn c))
        configs
    in
    let requested = List.length fresh in
    let batch_keys = Itbl.create 16 in
    let missing =
      List.filter
        (fun (_, k) ->
          if Itbl.mem batch_keys k || Option.is_some (lookup k) then false
          else begin
            Itbl.add batch_keys k ();
            true
          end)
        fresh
      |> Array.of_list
    in
    let n = Array.length missing in
    let made =
      Parallel.run ?jobs n (fun i -> eval (fst missing.(i)))
    in
    List.iteri (fun i m -> store (snd missing.(i)) m) made;
    explored := !explored + n;
    pruned := !pruned + (requested - n);
    bump ~by:n "tune.explored";
    bump ~by:(requested - n) "tune.pruned";
    (* resolve every requested config from the memo, batch order *)
    List.iter (fun (c, k) -> record c (Itbl.find memo k)) fresh
  in
  let best () =
    match !incumbent with
    | Some b -> b
    | None -> invalid_arg "Tune.search: empty space"
  in
  let mode =
    match mode with
    | Auto -> if size sp <= exhaustive_threshold then Exhaustive else Hill
    | m -> m
  in
  (match mode with
  | Auto -> assert false
  | Exhaustive ->
      let all =
        List.concat_map
          (fun d ->
            List.concat_map
              (fun s ->
                List.map
                  (fun n -> { devices = d; streams = s; nblocks = n })
                  sp.sp_nblocks)
              sp.sp_streams)
          sp.sp_devices
      in
      evaluate (default_config :: all)
  | Hill ->
      evaluate (default_config :: seeds);
      (* coordinate descent: walk one dimension at a time from the
         incumbent, batch-costing the whole line; stop when a full
         cycle leaves the incumbent in place *)
      let line base set vals = List.map (set base) vals in
      let dims =
        [
          (fun b d -> { b with devices = d }), sp.sp_devices;
          (fun b s -> { b with streams = s }), sp.sp_streams;
          (fun b n -> { b with nblocks = n }), sp.sp_nblocks;
        ]
      in
      let rounds = ref 0 in
      let continue = ref true in
      while !continue && !rounds < 32 do
        incr rounds;
        let before = (best ()).pt_config in
        List.iter
          (fun (set, vals) ->
            evaluate (line (best ()).pt_config set vals))
          dims;
        continue := compare_config (best ()).pt_config before <> 0
      done);
  {
    r_default =
      {
        pt_config = default_config;
        pt_makespan = Ctbl.find evaluated default_config;
      };
    r_best = best ();
    r_explored = !explored;
    r_pruned = !pruned;
    r_points =
      List.sort (fun a b -> compare_config a.pt_config b.pt_config) !log;
  }

(** {1 Workload glue}

    Preparing a workload lowers it once, at {!Comp.default_nblocks}.
    Data streaming is the only pass that reads the block count, so
    when no streaming site applied, every candidate count shares that
    one program, and it runs once.  Otherwise every other candidate's
    program is that lowering re-blocked
    ({!Transforms.Streaming.reblock}), which differs from it in how
    each streamed region cuts its loop into blocks: one profiled run
    of the 4-block lowering fixes every candidate's trace by
    arithmetic ({!Transforms.Streaming.retrace}).  Where the
    derivation refuses, every candidate runs, as before.  The search
    gets an [eval]/[keyfn] pair over those traces.

    Counters: [tune.traces.executed] and [tune.traces.derived] count
    the traces a preparation ran and derived;
    [tune.retrace.refused.<reason>] counts refusals by
    {!Transforms.Streaming.refusal_name}. *)

(* the machine parameters a trace's replay cost depends on — part of
   every cross-search cache key.  [%h] prints a float's exact bits,
   where [%g] would give 0.1234567 and 0.1234568 one key. *)
let machine_key (cfg : Config.t) =
  let scales =
    List.map
      (fun (d, s) ->
        Printf.sprintf "dev%d:%h:%h" d s.Config.sc_cores s.Config.sc_bw)
      cfg.Config.scales
  in
  String.concat ","
    (Printf.sprintf "pcie=%h/%h/%h" cfg.Config.pcie.bw_h2d_gbs
       cfg.pcie.bw_d2h_gbs cfg.pcie.latency_s
    :: Printf.sprintf "launch=%h" cfg.mic.launch_overhead_s
    :: Printf.sprintf "fault=%s" (Fault.to_string cfg.fault)
    :: scales)

type prepared = {
  p_name : string;
  p_base : Config.t;  (** devices/streams overridden per candidate *)
  p_space : space;
  p_traces : Minic.Interp.event list array;
  p_trace_of_nblocks : (int * int) list;  (** nblocks -> trace index *)
  p_seed_nblocks : int;  (** analytic {!Transforms.Block_size} seed *)
}

(* seed the block-count dimension analytically: per kernel site of the
   default trace, derive (D, C, K) and ask the memoized Block_size
   chooser; sites sharing a shape answer from the cache.  The dominant
   (max-work) site's choice seeds the hill search. *)
let seed_nblocks ?obs ?block_cache (cfg : Config.t) sp events =
  let bcache =
    match block_cache with
    | Some c -> c
    | None -> Transforms.Block_size.Cache.create ?obs ()
  in
  let params = Runtime.Replay.default_params in
  let prefix = machine_key cfg ^ "|" in
  let blocks = Runtime.Migrate.blocks_of_events events in
  let best =
    List.fold_left
      (fun acc (b : Runtime.Migrate.block) ->
        let bytes cells =
          float_of_int cells *. params.Runtime.Replay.bytes_per_cell
        in
        let p =
          {
            Transforms.Block_size.transfer_s =
              Cost.transfer_time cfg Cost.H2d
                ~bytes:(bytes (b.blk_h2d_cells + b.blk_resident_cells))
              +. Cost.transfer_time cfg Cost.D2h
                   ~bytes:(bytes b.blk_d2h_cells);
            compute_s =
              float_of_int b.blk_work *. params.Runtime.Replay.seconds_per_stmt;
            launch_s = Cost.launch_time cfg;
          }
        in
        let key =
          String.concat ","
            [
              prefix;
              string_of_int b.blk_h2d_cells;
              string_of_int b.blk_resident_cells;
              string_of_int b.blk_d2h_cells;
              string_of_int b.blk_work;
            ]
        in
        let n =
          Transforms.Block_size.Cache.choose bcache ~key
            ~candidates:sp.sp_nblocks p
        in
        match acc with
        | Some (work, _) when work >= b.blk_work -> acc
        | _ -> Some (b.blk_work, n))
      None blocks
  in
  match best with None -> Comp.default_nblocks | Some (_, n) -> n

let prepare_program ?(base = Config.paper_default) ?nblocks ?obs ?block_cache
    ~max_devices ~max_streams ~name prog : (prepared, string) result =
  let sp = space ?nblocks ~max_devices ~max_streams () in
  let bump ?(by = 1) name =
    match obs with None -> () | Some o -> Obs.incr ~by o name
  in
  let trace p =
    bump "tune.traces.executed";
    Result.map
      (fun (o : Minic.Interp.outcome) -> o.events)
      (Minic.Compile_eval.run_compiled p)
  in
  let default_prog, applied =
    Comp.optimize ~nblocks:Comp.default_nblocks prog
  in
  let by_candidate = List.mapi (fun i nb -> (nb, i)) sp.sp_nblocks in
  (* each candidate is the lowering re-blocked, so no two coincide:
     trace each once, in candidate order; the first runtime error ends
     the preparation *)
  let execute_all () =
    let rec go traces = function
      | [] -> Ok (List.rev traces, by_candidate)
      | nb :: rest -> (
          let p =
            if nb = Comp.default_nblocks then default_prog
            else Transforms.Streaming.reblock ~nblocks:nb default_prog
          in
          match trace p with
          | Error e -> Error e
          | Ok events -> go (events :: traces) rest)
    in
    go [] sp.sp_nblocks
  in
  let traced =
    if applied.Comp.streamed = 0 then
      (* streaming is the only pass that reads the block count, and it
         applied nowhere: every candidate lowers to this one program *)
      Result.map
        (fun events -> ([ events ], List.map (fun nb -> (nb, 0)) sp.sp_nblocks))
        (trace default_prog)
    else
      match
        Transforms.Streaming.retrace applied.Comp.streamed_regions default_prog
          ~nblocks:sp.sp_nblocks
      with
      | Ok retraced ->
          let derived =
            List.length
              (List.filter
                 (fun (r : Transforms.Streaming.retraced) ->
                   r.rt_nblocks <> Transforms.Streaming.retrace_nblocks)
                 retraced)
          in
          bump "tune.traces.executed";
          bump ~by:derived "tune.traces.derived";
          Ok
            ( List.map
                (fun (r : Transforms.Streaming.retraced) -> r.rt_events)
                retraced,
              by_candidate )
      | Error r ->
          bump
            ("tune.retrace.refused." ^ Transforms.Streaming.refusal_name r);
          execute_all ()
  in
  Result.map
    (fun (traces, trace_of_nblocks) ->
      let traces = Array.of_list traces in
      let default_trace =
        traces.(List.assoc Comp.default_nblocks trace_of_nblocks)
      in
      {
        p_name = name;
        p_base = base;
        p_space = sp;
        p_traces = traces;
        p_trace_of_nblocks = trace_of_nblocks;
        p_seed_nblocks = seed_nblocks ?obs ?block_cache base sp default_trace;
      })
    traced

let prepare ?base ?nblocks ?obs ?block_cache ~max_devices ~max_streams
    (w : Workloads.Workload.t) : prepared =
  let name = w.Workloads.Workload.name in
  match
    prepare_program ?base ?nblocks ?obs ?block_cache ~max_devices
      ~max_streams ~name
      (Workloads.Workload.program w)
  with
  | Ok p -> p
  | Error e -> failwith (Printf.sprintf "tune: %s: %s" name e)

let eval_config pre c =
  let cfg =
    Config.with_devices pre.p_base ~devices:c.devices ~streams:c.streams
  in
  Runtime.Migrate.makespan cfg
    pre.p_traces.(List.assoc c.nblocks pre.p_trace_of_nblocks)

(* two configs with the same device/stream grid and the same lowered
   trace are the same simulation.  The key packs (devices, streams,
   trace) into fixed bit fields, so it means the same in every search
   of one workload on one machine, as a shared {!Cache} needs: a trace
   index is below {!Transforms.Block_size.max_blocks} = 2^12 (one per
   distinct clamped count), and a grid past 2^24 streams or 2^26
   devices could not even be listed. *)
let key_config pre c =
  if c.devices lsr 26 <> 0 || c.streams lsr 24 <> 0 then
    invalid_arg "Tune.key_config: grid too large";
  (c.devices lsl 36)
  lor (c.streams lsl 12)
  lor List.assoc c.nblocks pre.p_trace_of_nblocks

let run ?jobs ?obs ?cache ?mode (pre : prepared) : report =
  let max_of l = List.fold_left max 1 l in
  let sp = pre.p_space in
  let seeds =
    [
      {
        devices = max_of sp.sp_devices;
        streams = max_of sp.sp_streams;
        nblocks = pre.p_seed_nblocks;
      };
      {
        devices = max_of sp.sp_devices;
        streams = 1;
        nblocks = pre.p_seed_nblocks;
      };
    ]
  in
  search ?jobs ?obs ?cache
    ~cache_prefix:(pre.p_name ^ "|" ^ machine_key pre.p_base)
    ?mode ~seeds sp
    ~eval:(eval_config pre)
    ~keyfn:(key_config pre)
