(** Sensitivity studies extending the paper: interconnect-bandwidth
    sweep (where streaming stops mattering), the 8 GB memory wall under
    input scaling (what double buffering makes runnable), and full- vs
    half-duplex links (what the d2h/h2d overlap is worth). *)

val bandwidth_rows : unit -> (string * float list) list
(** Streaming gain at 3/6/12/24/48 GB/s per streaming benchmark
    (single-offload shapes). *)

val memory_wall_rows :
  unit -> (string * int * float * bool * float * bool) list
(** (benchmark, input scale, naive bytes, naive fits, streamed bytes,
    streamed fits). *)

val duplex_rows : unit -> (string * float * float * float) list
(** (benchmark, full-duplex s, half-duplex s, slowdown). *)

val print : unit -> unit
