(** Fault injection and recovery for the machine simulator.

    A {!spec} is a deterministic, seeded fault plan — transfer CRC
    errors by block index or probability, dropped/delayed COI signals,
    a device reset at time t, MYO page-service stalls — plus the
    {!policy} the runtime recovers with (retry budget, exponential
    backoff, wait timeout, device-death threshold, CPU fallback).  The
    spec travels inside [Machine.Config.t]; each consumer instantiates
    a mutable plan {!t} from it.  All randomness is a pure hash of
    [(seed, stream, index)], so runs are reproducible and draws are
    independent of evaluation order. *)

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

val default_policy : policy

(** {1 Specification} *)

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
          index; base clauses apply to every device.  Sub-specs carry
          only injectable clauses (their seed/policy/devs stay at the
          defaults — the recovery policy and seed are global). *)
}

val none : spec
(** No faults; the config default.  Consumers short-circuit on it. *)

val is_none : spec -> bool

val spec_for_dev : spec -> int -> spec
(** The effective single-device spec for a device: base clauses plus
    that device's [devN:] refinements, with [devs = []]. *)

val devices_mentioned : spec -> int
(** [max devN index + 1] over the [devN:] clauses, 0 when none. *)

type parse_error = { token : string; reason : string }
(** A malformed [--faults] clause: the offending token and why it was
    rejected.  There is no silent fallback — unknown clauses, empty
    clauses (trailing commas), bad numbers, out-of-range probabilities
    and per-device policy clauses are all errors. *)

val error_message : parse_error -> string
(** ["faults: <reason> in \"<token>\""]. *)

val parse : string -> (spec, parse_error) result
(** The [--faults] grammar: comma-separated [seed=N], [xfer=P],
    [xfer@I], [xfer@I*K], [kill@I], [drop@TAG], [delay@TAG:SECS],
    [reset@T], [myo-stall=P:SECS], any of those behind a [devN:]
    prefix (device-N-only), and global policy overrides [retries=N],
    [backoff=BASE:CEIL], [timeout=T], [dead-after=N],
    [fallback]/[no-fallback], [slowdown=F], [reset-cost=S]. *)

val to_string : spec -> string
(** Canonical spec string; [parse (to_string s)] round-trips
    (property-tested, including [devN:] refinements, full-precision
    mantissas and extreme exponents). *)

val float_to_string : float -> string
(** The shortest of [%g], [%.15g], [%.16g] and [%.17g] that reads back
    as exactly the float, the first on a tie: [0.001] prints ["0.001"]
    as [%g] does, but [0.1234567] stays ["0.1234567"] where [%g] would
    round it.  Every float of a fault or fleet spec prints through
    it. *)

(** {1 Plans} *)

type t
(** A mutable plan instantiated from a spec: tracks the transfer
    index, the consecutive-failure count for the degradation policy,
    and which one-shot faults were already consumed.  All one-shot
    state is per plan instance — consumers must not share a [t]; each
    engine instantiates its own from the immutable spec. *)

val plan : ?obs:Obs.t -> ?dev:int -> spec -> t
(** With [?obs], every injection/retry/reset/timeout/fallback bumps a
    [fault.*] counter and recovery times land in the [fault.recovery_s]
    histogram.  [?dev] (default 0) selects the device: the spec is
    specialized with {!spec_for_dev} and the probabilistic draw
    streams are offset so devices fail independently. *)

val spec : t -> spec
val policy : t -> policy

exception Device_dead of { dev : int; at : float; failures : int }
(** The degradation policy declared device [dev] dead at simulated
    time [at] after [failures] failed attempts.  Raised by the engine;
    recovered (migration to surviving devices, then CPU fallback) or
    surfaced by the strategy layer. *)

(** {1 Fleets} *)

type fleet = t array
(** One plan instance per device (index = device). *)

val fleet : ?obs:Obs.t -> devices:int -> spec -> fleet

val fleet_of : ?obs:Obs.t -> devices:int -> spec -> fleet option
(** [None] for {!none}. *)

val fleet_plan : fleet -> dev:int -> t

val backoff_total : t -> failures:int -> float
(** Total backoff delay after [failures] failed attempts:
    [sum min(base * 2^(j-1), ceiling)]. *)

(** {2 Transfers} *)

type xfer_report = {
  xr_index : int;
  xr_failures : int;  (** failed attempts before success (or death) *)
  xr_resets : int;  (** device resets taken while recovering *)
  xr_dead : bool;  (** the degradation policy gave up *)
}

val next_transfer : t -> xfer_report
(** Outcome of the next transfer: retries until one attempt succeeds,
    paying a device reset per exhausted retry round, until
    [dead_after] consecutive exhausted rounds declare death. *)

(** {2 Signals} *)

type fate = Deliver | Dropped | Delayed of float

val signal_fate : t -> tag:int -> fate
(** Each [drop@TAG]/[delay@TAG] clause is consumed once: the re-signal
    after a drop goes through. *)

(** {2 Device reset} *)

val take_reset : t -> start:float -> stop:float -> (float * float) option
(** If the one-shot [reset@T] falls inside [[start, stop)], consume it
    and return [(reset_time, recovery_cost)].  The one-shot state is
    {e per plan instance} ([t]), never shared through the spec: two
    engines holding plans built from the same spec each observe their
    own reset (regression-tested). *)

(** {2 MYO stalls} *)

val myo_stall : t -> float option
(** Stall duration (if any) for the next batch of page faults. *)

(** {2 Bookkeeping} *)

val note_fallback : t -> unit
val note_timeout : t -> unit
