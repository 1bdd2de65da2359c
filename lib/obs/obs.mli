(** Observability substrate for the runtime and the machine simulator.

    A sink collects monotonic {e counters}, power-of-two-bucketed
    {e histograms}, and start/stop {e spans} on the simulated clock,
    each tagged with a {!kind}.  Instrumented functions take [?obs] and
    record nothing when none is supplied, so uninstrumented paths pay
    nothing.  The counters are the raw material of the paper's
    Table III; the spans are the event trace behind [--profile]. *)

(** Classification of spans and engine tasks. *)
type kind =
  | H2d  (** host-to-device DMA *)
  | D2h  (** device-to-host DMA *)
  | Kernel  (** device computation *)
  | Launch  (** kernel launch overhead *)
  | Signal  (** COI signal/wait traffic (thread reuse) *)
  | Page_fault  (** MYO on-demand page copies *)
  | Seg_alloc  (** segmented-buffer segment creation *)
  | Repack  (** host-side regularization work *)
  | Retry  (** fault recovery: retransfers, backoff, resets, fallback *)
  | Host  (** other host work: glue, allocation bookkeeping *)

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

(** A completed span on the simulated clock. *)
type span = {
  span_kind : kind;
  span_label : string;
  span_bytes : float;
  span_start : float;
  span_stop : float;
}

type histogram = private {
  mutable h_count : int;
  mutable h_total : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
      (** 64 power-of-two buckets; bucket [i] counts samples in
          [[2^(i-1), 2^i)], bucket 0 everything below 1 *)
}

type t

val create : unit -> t
val reset : t -> unit

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst]: counters add, histograms
    combine (counts, totals and buckets add; min/max widen — an empty
    histogram contributes the neutral [infinity]/[neg_infinity] pair,
    never 0), [src]'s absorbed per-kind totals (see {!absorb}) add to
    [dst]'s, and [src]'s completed spans are prepended to [dst]'s.

    Completed spans are stored {e newest-first} internally (and
    reversed by {!spans}); [merge] relies on that ordering and
    preserves it.  When parallel tasks record into private sinks and
    the sinks are merged {e in submission order}, the result is
    identical — spans, aggregates, and JSON — to the single sink of
    the sequential run.  Merging is associative; counters, histograms
    and per-kind aggregates are also commutative (span {e order} is
    not: it follows merge order).

    [src] is left untouched.  Raises [Invalid_argument] if [src] has
    open spans — an open span would have no owner after the merge. *)

val absorb : t -> t -> unit
(** [absorb dst src] is {!merge} without [src]'s spans: counters and
    histograms fold in exactly as {!merge} folds them, and [src]'s
    per-kind span totals ({!by_kind}: count, bytes, seconds) are added
    to [dst]'s {e absorbed} totals instead of its span list.  A sink
    that absorbs every source keeps memory independent of how many
    sources it absorbed; {!by_kind}, the [*_of_kind] accessors and
    {!to_json} report the same counts as {!merge} would have, and the
    same byte and second totals up to the order of float additions.
    [src] is left untouched; raises [Invalid_argument] if [src] has
    open spans. *)

(** {1 Counters} *)

val incr : ?by:int -> t -> string -> unit
val add : t -> string -> int -> unit
val count : t -> string -> int
(** 0 for a counter never incremented. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Histograms} *)

val observe : t -> string -> float -> unit
val histogram : t -> string -> histogram option
val histograms : t -> (string * histogram) list
val mean : histogram -> float

(** {1 Spans} *)

val span_begin : ?bytes:float -> t -> kind -> label:string -> start:float -> int
(** Open a span; returns its id for {!span_end}. *)

val span_end : t -> int -> stop:float -> unit
(** Close an open span.  Raises [Invalid_argument] if the id is not
    open.  A stop before the start is clamped to the start. *)

val span : ?bytes:float -> t -> kind -> label:string -> start:float -> stop:float -> unit
(** Record a complete span (begin + end in one call). *)

val spans : t -> span list
(** Completed spans, oldest first (internal storage is newest-first;
    this accessor reverses — see {!merge} for why the storage order is
    part of the contract). *)

val span_count : t -> int
(** Completed spans held in the sink ({!spans}'s length); absorbed
    spans are not held and not counted here, only in {!by_kind}. *)

val unclosed : t -> (kind * string) list
(** Spans begun but never ended — each one is a leak (property-tested
    to be empty for every generated schedule). *)

(** {1 Aggregates} *)

type kind_stat = { ks_count : int; ks_bytes : float; ks_seconds : float }

val by_kind : t -> (kind * kind_stat) list
(** Per-kind totals over absorbed and completed spans; kinds with no
    spans omitted.  Each kind's fold over the held spans starts from
    its absorbed total, so a sink that never absorbed reports exactly
    the fold over its own spans. *)

val bytes_of_kind : t -> kind -> float
val seconds_of_kind : t -> kind -> float
val count_of_kind : t -> kind -> int

(** {1 JSON} *)

(** Dependency-free JSON tree, enough for [--profile -o].  Non-finite
    floats serialize as [null]. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val of_string : string -> (t, string) result
  (** Strict parser for one JSON document: accepts what {!to_string}
      produces plus inter-token whitespace, rejects trailing garbage,
      never raises.  Numbers without [.]/[e] that fit an OCaml [int]
      parse as [Int]; everything else as [Float]. *)

  val member : string -> t -> t option
  (** Field lookup on an [Obj]; [None] on missing key or non-object. *)
end

val histogram_json : histogram -> Json.t

val to_json : t -> Json.t
(** Counters, per-kind span totals ({!by_kind}), and histogram
    summaries: the ["counters"]/["kinds"]/["histograms"] sections of
    the profile schema. *)
