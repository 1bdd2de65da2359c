(** Fault injection and recovery for the machine simulator.

    Real MIC deployments saw PCIe transfer errors, lost COI signals,
    device hangs and resets (arXiv:1310.5842, arXiv:1308.3123); the
    happy-path simulator silently assumes none of them.  This module
    defines a {e deterministic, seeded fault plan} — which transfers
    fail, which signals are dropped or delayed, when the device resets,
    how often MYO page service stalls — plus the {e recovery policy}
    the runtime applies: per-transfer retry with exponential backoff
    and a retry budget, wait timeouts, device-death declaration after N
    consecutive exhausted transfers, and CPU fallback.

    The spec travels inside {!Machine.Config.t}; the consumers
    ([Engine], [Myo], [Replay]) each instantiate a mutable {!t} (a
    {e plan}) from it and consult it as simulated events occur.  All
    randomness is a pure hash of [(seed, stream, index)], so draws are
    independent of evaluation order and every run with the same spec
    is identical. *)

(** {1 Recovery policy} *)

type policy = {
  max_retries : int;
      (** retry budget per transfer round (retries, not attempts) *)
  backoff_base_s : float;  (** first retry delay *)
  backoff_ceiling_s : float;  (** exponential backoff saturates here *)
  wait_timeout_s : float;
      (** a wait whose signal was dropped gives up after this long and
          polls the transfer itself instead of deadlocking *)
  dead_after : int;
      (** consecutive exhausted retry rounds before the device is
          declared dead *)
  cpu_fallback : bool;  (** re-run the region on the host after death *)
  fallback_slowdown : float;
      (** host-vs-device slowdown applied to replayed kernel work when
          falling back *)
  reset_recovery_s : float;  (** time one device reset costs *)
}

let default_policy =
  {
    max_retries = 3;
    backoff_base_s = 1.0e-4;
    backoff_ceiling_s = 5.0e-3;
    wait_timeout_s = 5.0e-3;
    dead_after = 3;
    cpu_fallback = true;
    fallback_slowdown = 4.0;
    reset_recovery_s = 5.0e-2;
  }

(** {1 The fault plan specification} *)

type spec = {
  seed : int;
  xfer_prob : float;  (** per-attempt CRC-failure probability *)
  xfer_fail : (int * int) list;
      (** (transfer index, forced consecutive failures) *)
  kill : int list;  (** transfer indices that fail every attempt *)
  drop_signals : int list;  (** tags whose next signal is lost *)
  delay_signals : (int * float) list;  (** tag -> delivery delay *)
  reset_at : float option;  (** spontaneous device reset time *)
  myo_stall_prob : float;  (** per-page-fault stall probability *)
  myo_stall_s : float;  (** duration of one page-service stall *)
  policy : policy;
  devs : (int * spec) list;
      (** per-device refinements ([devN:] clauses), sorted by device
          index.  The base clauses apply to {e every} device; a
          sub-spec adds faults for its device on top.  Sub-specs carry
          only injectable clauses: their [seed], [policy] and [devs]
          fields stay at the defaults (the recovery policy and seed
          are global). *)
}

let none =
  {
    seed = 0;
    xfer_prob = 0.;
    xfer_fail = [];
    kill = [];
    drop_signals = [];
    delay_signals = [];
    reset_at = None;
    myo_stall_prob = 0.;
    myo_stall_s = 0.;
    policy = default_policy;
    devs = [];
  }

let base_is_none s =
  s.xfer_prob = 0. && s.xfer_fail = [] && s.kill = [] && s.drop_signals = []
  && s.delay_signals = [] && s.reset_at = None && s.myo_stall_prob = 0.

let is_none s =
  base_is_none s
  && List.for_all (fun (_, sub) -> base_is_none sub) s.devs

(** The effective single-device spec for device [d]: the base clauses
    (which apply to every device) with [devN:] refinements folded in.
    Per-device draws still differ because {!plan} offsets the draw
    stream by the device index. *)
let spec_for_dev s d =
  match List.assoc_opt d s.devs with
  | None -> { s with devs = [] }
  | Some o ->
      {
        s with
        devs = [];
        xfer_prob = (if o.xfer_prob > 0. then o.xfer_prob else s.xfer_prob);
        xfer_fail = s.xfer_fail @ o.xfer_fail;
        kill = s.kill @ o.kill;
        drop_signals = s.drop_signals @ o.drop_signals;
        delay_signals = s.delay_signals @ o.delay_signals;
        reset_at =
          (match o.reset_at with Some _ -> o.reset_at | None -> s.reset_at);
        myo_stall_prob =
          (if o.myo_stall_prob > 0. then o.myo_stall_prob else s.myo_stall_prob);
        myo_stall_s =
          (if o.myo_stall_prob > 0. then o.myo_stall_s else s.myo_stall_s);
      }

(** Number of devices the spec mentions explicitly: [max devN index + 1],
    or 0 when no [devN:] clause appears. *)
let devices_mentioned s =
  List.fold_left (fun acc (d, _) -> max acc (d + 1)) 0 s.devs

(** {1 Spec grammar}

    Comma-separated clauses:
    - [seed=N]          deterministic seed for probabilistic draws
    - [xfer=P]          every transfer attempt fails with probability P
    - [xfer@I] / [xfer@I*K]  transfer I fails once (or K times)
    - [kill@I]          transfer I fails every attempt (device death)
    - [drop@TAG]        the next signal on TAG is lost
    - [delay@TAG:SECS]  the next signal on TAG is delivered late
    - [reset@T]         the device resets at simulated time T
    - [myo-stall=P:SECS] page service stalls with probability P
    - [devN:CLAUSE]     the injectable clause applies to device N only
      (policy and seed clauses stay global and are rejected under a
      [devN:] prefix)
    - [retries=N], [backoff=BASE:CEIL], [timeout=T], [dead-after=N],
      [fallback] / [no-fallback], [slowdown=F], [reset-cost=S]
      override the recovery policy.

    Every malformed clause is a typed {!parse_error} naming the
    offending token — there is no silent fallback: unknown clauses,
    empty clauses (trailing commas), bad numbers and out-of-range
    probabilities are all errors. *)

type parse_error = { token : string; reason : string }

let error_message { token; reason } =
  Printf.sprintf "faults: %s in %S" reason token

let clause_err c what = Error { token = c; reason = what }

let parse_float c s =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f && f >= 0. -> Ok f
  | _ -> clause_err c "bad number"

let parse_int c s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 -> Ok n
  | _ -> clause_err c "bad index"

let ( let* ) = Result.bind

let parse_clause spec c =
  let kv key = String.length key in
  let after key = String.sub c (kv key) (String.length c - kv key) in
  let starts key =
    String.length c >= kv key && String.sub c 0 (kv key) = key
  in
  if c = "" then clause_err c "empty clause"
  else if starts "seed=" then
    let* n = parse_int c (after "seed=") in
    Ok { spec with seed = n }
  else if starts "xfer=" then
    let* p = parse_float c (after "xfer=") in
    if p > 1. then clause_err c "probability above 1"
    else Ok { spec with xfer_prob = p }
  else if starts "xfer@" then (
    match String.split_on_char '*' (after "xfer@") with
    | [ i ] ->
        let* i = parse_int c i in
        Ok { spec with xfer_fail = (i, 1) :: spec.xfer_fail }
    | [ i; k ] ->
        let* i = parse_int c i in
        let* k = parse_int c k in
        Ok { spec with xfer_fail = (i, k) :: spec.xfer_fail }
    | _ -> clause_err c "expected xfer@I or xfer@I*K")
  else if starts "kill@" then
    let* i = parse_int c (after "kill@") in
    Ok { spec with kill = i :: spec.kill }
  else if starts "drop@" then
    let* t = parse_int c (after "drop@") in
    Ok { spec with drop_signals = t :: spec.drop_signals }
  else if starts "delay@" then (
    match String.split_on_char ':' (after "delay@") with
    | [ t; d ] ->
        let* t = parse_int c t in
        let* d = parse_float c d in
        Ok { spec with delay_signals = (t, d) :: spec.delay_signals }
    | _ -> clause_err c "expected delay@TAG:SECS")
  else if starts "reset@" then
    let* t = parse_float c (after "reset@") in
    Ok { spec with reset_at = Some t }
  else if starts "myo-stall=" then (
    match String.split_on_char ':' (after "myo-stall=") with
    | [ p; s ] ->
        let* p = parse_float c p in
        let* s = parse_float c s in
        if p > 1. then clause_err c "probability above 1"
        else Ok { spec with myo_stall_prob = p; myo_stall_s = s }
    | _ -> clause_err c "expected myo-stall=P:SECS")
  else if starts "retries=" then
    let* n = parse_int c (after "retries=") in
    Ok { spec with policy = { spec.policy with max_retries = n } }
  else if starts "backoff=" then (
    match String.split_on_char ':' (after "backoff=") with
    | [ b; cl ] ->
        let* b = parse_float c b in
        let* cl = parse_float c cl in
        Ok
          {
            spec with
            policy =
              { spec.policy with backoff_base_s = b; backoff_ceiling_s = cl };
          }
    | _ -> clause_err c "expected backoff=BASE:CEIL")
  else if starts "timeout=" then
    let* t = parse_float c (after "timeout=") in
    Ok { spec with policy = { spec.policy with wait_timeout_s = t } }
  else if starts "dead-after=" then
    let* n = parse_int c (after "dead-after=") in
    if n = 0 then clause_err c "dead-after must be positive"
    else Ok { spec with policy = { spec.policy with dead_after = n } }
  else if starts "slowdown=" then
    let* f = parse_float c (after "slowdown=") in
    Ok { spec with policy = { spec.policy with fallback_slowdown = f } }
  else if starts "reset-cost=" then
    let* s = parse_float c (after "reset-cost=") in
    Ok { spec with policy = { spec.policy with reset_recovery_s = s } }
  else if c = "no-fallback" then
    Ok { spec with policy = { spec.policy with cpu_fallback = false } }
  else if c = "fallback" then
    Ok { spec with policy = { spec.policy with cpu_fallback = true } }
  else clause_err c "unknown clause"

(* clauses prepend; restore left-to-right order *)
let unrev spec =
  {
    spec with
    xfer_fail = List.rev spec.xfer_fail;
    kill = List.rev spec.kill;
    drop_signals = List.rev spec.drop_signals;
    delay_signals = List.rev spec.delay_signals;
  }

(* [devN:] carries only injectable faults; the recovery policy and the
   seed are properties of the whole plan *)
let dev_clause_allowed c =
  List.exists
    (fun key ->
      String.length c >= String.length key
      && String.sub c 0 (String.length key) = key)
    [ "xfer="; "xfer@"; "kill@"; "drop@"; "delay@"; "reset@"; "myo-stall=" ]

(* A [devN:] prefix: "dev", a non-empty run of digits, ':'.  Returns
   [(device, rest-of-clause)]. *)
let split_dev_prefix c =
  let n = String.length c in
  if n < 5 || String.sub c 0 3 <> "dev" then None
  else
    match String.index_opt c ':' with
    | Some i when i > 3 -> (
        match int_of_string_opt (String.sub c 3 (i - 3)) with
        | Some d when d >= 0 -> Some (d, String.sub c (i + 1) (n - i - 1))
        | _ -> None)
    | _ -> None

let parse s =
  if String.trim s = "" then Ok none
  else
    let clauses = String.split_on_char ',' s in
    let rec go spec = function
      | [] ->
          let devs =
            List.sort
              (fun (a, _) (b, _) -> compare a b)
              (List.map (fun (d, sub) -> (d, unrev sub)) spec.devs)
          in
          Ok { (unrev spec) with devs }
      | c :: rest -> (
          let c = String.trim c in
          match split_dev_prefix c with
          | Some (d, sub_clause) ->
              if not (dev_clause_allowed sub_clause) then
                clause_err c "policy/seed clauses are global, not per-device"
              else
                let sub =
                  Option.value (List.assoc_opt d spec.devs) ~default:none
                in
                let* sub =
                  Result.map_error
                    (fun e -> { e with token = c })
                    (parse_clause sub sub_clause)
                in
                go
                  { spec with devs = (d, sub) :: List.remove_assoc d spec.devs }
                  rest
          | None -> (
              match parse_clause spec c with
              | Ok spec -> go spec rest
              | Error _ as e -> e))
    in
    go none clauses

(* The shortest of [%g], [%.15g], [%.16g] and [%.17g] that reads back
   as exactly [x], the first on a tie: 0.001 prints "0.001", as [%g]
   does, but 0.1234567 stays "0.1234567" where [%g] rounds it to
   "0.123457".  [%.17g] always reads back. *)
let float_to_string x =
  let exact fmt =
    let s = Printf.sprintf fmt x in
    if Float.equal (float_of_string s) x then Some s else None
  in
  List.fold_left
    (fun best s ->
      match (best, s) with
      | Some b, Some s when String.length s < String.length b -> Some s
      | None, s -> s
      | best, _ -> best)
    None
    [ exact "%g"; exact "%.15g"; exact "%.16g"; exact "%.17g" ]
  |> Option.get

let base_clauses s =
  let p = s.policy and d = default_policy in
  let num = float_to_string in
    (if s.seed <> 0 then [ Printf.sprintf "seed=%d" s.seed ] else [])
    @ (if s.xfer_prob > 0. then [ "xfer=" ^ num s.xfer_prob ]
       else [])
    @ List.map
        (fun (i, k) ->
          if k = 1 then Printf.sprintf "xfer@%d" i
          else Printf.sprintf "xfer@%d*%d" i k)
        s.xfer_fail
    @ List.map (Printf.sprintf "kill@%d") s.kill
    @ List.map (Printf.sprintf "drop@%d") s.drop_signals
    @ List.map (fun (t, d) -> Printf.sprintf "delay@%d:%s" t (num d)) s.delay_signals
    @ (match s.reset_at with
      | Some t -> [ "reset@" ^ num t ]
      | None -> [])
    @ (if s.myo_stall_prob > 0. then
         [ Printf.sprintf "myo-stall=%s:%s" (num s.myo_stall_prob) (num s.myo_stall_s) ]
       else [])
    @ (if p.max_retries <> d.max_retries then
         [ Printf.sprintf "retries=%d" p.max_retries ]
       else [])
    @ (if
         p.backoff_base_s <> d.backoff_base_s
         || p.backoff_ceiling_s <> d.backoff_ceiling_s
       then [ Printf.sprintf "backoff=%s:%s" (num p.backoff_base_s) (num p.backoff_ceiling_s) ]
       else [])
    @ (if p.wait_timeout_s <> d.wait_timeout_s then
         [ "timeout=" ^ num p.wait_timeout_s ]
       else [])
    @ (if p.dead_after <> d.dead_after then
         [ Printf.sprintf "dead-after=%d" p.dead_after ]
       else [])
    @ (if p.cpu_fallback <> d.cpu_fallback then [ "no-fallback" ] else [])
    @ (if p.fallback_slowdown <> d.fallback_slowdown then
         [ "slowdown=" ^ num p.fallback_slowdown ]
       else [])
  @
  if p.reset_recovery_s <> d.reset_recovery_s then
    [ "reset-cost=" ^ num p.reset_recovery_s ]
  else []

let to_string s =
  let dev_clauses =
    List.concat_map
      (fun (d, sub) ->
        List.map (fun c -> Printf.sprintf "dev%d:%s" d c) (base_clauses sub))
      s.devs
  in
  String.concat "," (base_clauses s @ dev_clauses)

(** {1 Deterministic draws}

    splitmix64-style finalizer over [(seed, stream, index)]: draws
    don't depend on evaluation order, and a plan consulted twice for
    the same event gives the same answer. *)

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let draw spec ~stream ~index =
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int spec.seed) 0x9e3779b97f4a7c15L)
         (Int64.add
            (Int64.mul (Int64.of_int stream) 0xd1b54a32d192ed03L)
            (Int64.of_int index)))
  in
  (* top 53 bits -> uniform float in [0, 1) *)
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.

(** {1 Plans} *)

type t = {
  spec : spec;
  dev : int;  (** device this plan instance belongs to *)
  mutable xfer_ix : int;  (** index of the next transfer *)
  mutable consecutive : int;  (** consecutive exhausted retry rounds *)
  mutable myo_ix : int;  (** index of the next page-fault batch *)
  drop_used : (int, unit) Hashtbl.t;
  delay_used : (int, unit) Hashtbl.t;
  mutable reset_taken : bool;
  obs : Obs.t option;
}

(* Each plan instance owns ALL its one-shot state ([reset_taken], the
   drop/delay tables) and its per-device draw streams: two consumers
   must never share one [t] — each engine instantiates its own plan
   from the (immutable) spec, so e.g. parallel sweeps each observe
   their own [reset@T] rather than racing for one. *)
let plan ?obs ?(dev = 0) spec =
  {
    spec = spec_for_dev spec dev;
    dev;
    xfer_ix = 0;
    consecutive = 0;
    myo_ix = 0;
    drop_used = Hashtbl.create 4;
    delay_used = Hashtbl.create 4;
    reset_taken = false;
    obs;
  }

let spec t = t.spec
let policy t = t.spec.policy

let bump ?(by = 1) t name =
  match t.obs with None -> () | Some o -> Obs.incr ~by o name

exception Device_dead of { dev : int; at : float; failures : int }

(** {2 Fleets}

    One plan instance per device, all derived from a single spec: the
    base clauses apply to every device, [devN:] refinements to theirs.
    Draw streams are offset by device index, so two devices under the
    same probabilistic clause fail independently. *)

type fleet = t array

let fleet ?obs ~devices spec =
  Array.init (max 1 devices) (fun d -> plan ?obs ~dev:d spec)

let fleet_of ?obs ~devices spec =
  if is_none spec then None else Some (fleet ?obs ~devices spec)

let fleet_plan (f : fleet) ~dev = f.(min dev (Array.length f - 1))

(** Exponential backoff paid after [failures] failed attempts:
    [sum_{j=1..failures} min(base * 2^(j-1), ceiling)]. *)
let backoff_total t ~failures =
  let p = t.spec.policy in
  let rec go j acc =
    if j > failures then acc
    else
      let d =
        Float.min
          (p.backoff_base_s *. Float.pow 2. (float_of_int (j - 1)))
          p.backoff_ceiling_s
      in
      go (j + 1) (acc +. d)
  in
  go 1 0.

(** {2 Transfers} *)

type xfer_report = {
  xr_index : int;
  xr_failures : int;  (** failed attempts before success (or death) *)
  xr_resets : int;  (** device resets taken while recovering *)
  xr_dead : bool;  (** the degradation policy gave up *)
}

(* Does attempt [attempt] of transfer [i] fail?  Forced failures
   ([xfer@I*K]) burn the first K attempts; [kill@I] fails all of them;
   on top, every attempt loses an independent probabilistic draw. *)
let attempt_fails t ~index ~attempt =
  let forced =
    match List.assoc_opt index t.spec.xfer_fail with Some k -> k | None -> 0
  in
  List.mem index t.spec.kill || attempt < forced
  || t.spec.xfer_prob > 0.
     && draw t.spec ~stream:(2 * t.dev)
          ~index:((index * 1_000_003) + attempt)
        < t.spec.xfer_prob

(** Outcome of the next transfer under the plan: how many attempts
    failed before one succeeded, how many device resets the recovery
    took, or whether the degradation policy declared the device dead
    ([dead_after] consecutive exhausted retry rounds).  Counts every
    injection/retry/reset in the sink. *)
let next_transfer t =
  let index = t.xfer_ix in
  t.xfer_ix <- index + 1;
  let p = t.spec.policy in
  let failures = ref 0 in
  let resets = ref 0 in
  let result = ref None in
  (* each round: one try plus up to [max_retries] retries; an exhausted
     round either kills the device or costs a reset and a fresh round *)
  while !result = None do
    let round_failed = ref true in
    let a = ref 0 in
    while !round_failed && !a <= p.max_retries do
      if attempt_fails t ~index ~attempt:!failures then begin
        incr failures;
        bump t "fault.injected";
        if !a < p.max_retries then bump t "fault.retries"
      end
      else round_failed := false;
      incr a
    done;
    if not !round_failed then begin
      if !failures > 0 then t.consecutive <- 0;
      result := Some false
    end
    else begin
      bump t "fault.exhausted";
      t.consecutive <- t.consecutive + 1;
      if t.consecutive >= p.dead_after then result := Some true
      else begin
        incr resets;
        bump t "fault.resets"
      end
    end
  done;
  {
    xr_index = index;
    xr_failures = !failures;
    xr_resets = !resets;
    xr_dead = (match !result with Some d -> d | None -> false);
  }

(** {2 Signals} *)

type fate = Deliver | Dropped | Delayed of float

(** What happens to a signal on [tag]: lost, late, or delivered.  Each
    [drop@TAG] / [delay@TAG] clause is consumed once — the re-signal
    after a drop goes through. *)
let signal_fate t ~tag =
  if List.mem tag t.spec.drop_signals && not (Hashtbl.mem t.drop_used tag)
  then begin
    Hashtbl.replace t.drop_used tag ();
    bump t "fault.dropped_signals";
    Dropped
  end
  else
    match List.assoc_opt tag t.spec.delay_signals with
    | Some d when not (Hashtbl.mem t.delay_used tag) ->
        Hashtbl.replace t.delay_used tag ();
        bump t "fault.delayed_signals";
        Delayed d
    | _ -> Deliver

(** {2 Device reset} *)

(** If the one-shot [reset@T] falls inside [[start, stop)], consume it
    and return the reset time and the recovery cost.

    The one-shot consumption is {e per plan instance}: [reset_taken]
    lives in {!t}, never in the spec, so every plan instantiated from
    the same spec observes its own reset exactly once.  Consumers must
    therefore not share a plan — one engine, one plan. *)
let take_reset t ~start ~stop =
  match t.spec.reset_at with
  | Some r when (not t.reset_taken) && r >= start && r < stop ->
      t.reset_taken <- true;
      bump t "fault.resets";
      Some (r, t.spec.policy.reset_recovery_s)
  | _ -> None

(** {2 MYO stalls} *)

(** Stall duration (if any) for the next batch of page faults. *)
let myo_stall t =
  let index = t.myo_ix in
  t.myo_ix <- index + 1;
  if
    t.spec.myo_stall_prob > 0.
    && draw t.spec ~stream:((2 * t.dev) + 1) ~index < t.spec.myo_stall_prob
  then begin
    bump t "fault.myo_stalls";
    Some t.spec.myo_stall_s
  end
  else None

(** {2 Fallback bookkeeping} *)

let note_fallback t = bump t "fault.fallbacks"

let note_timeout t = bump t "fault.timeouts"
