(** Reference interpreter for MiniC with {e two} address spaces.

    The host (CPU) and the coprocessor (MIC) have separate heaps, as on
    a real PCIe-attached Xeon Phi.  Offload bodies execute in MIC mode:
    dereferencing a CPU pointer there is a runtime error, so a
    transformation that forgets to transfer data produces a hard
    failure rather than silently reading host memory.  This is what the
    semantics-preservation property tests run against.

    Offload semantics follow LEO:
    - [in]/[inout] sections are copied to device shadow buffers before
      the body runs; clause arrays are rebound to their shadows inside
      the body; [out]/[inout] sections are copied back afterwards
      (whole sections — a partially-written [out] array copies
      undefined device cells back, as on real hardware);
    - scalars are readable from the device without clauses
      (firstprivate); writing host memory from the device is an error;
    - [offload_transfer] moves sections explicitly, with [into()]
      redirecting to device buffers obtained from [mic_malloc];
    - [signal]/[wait] clauses are functional no-ops (they only matter
      to the timing model). *)

type space = Cpu | Mic

type addr = { space : space; ofs : int }

type value =
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vptr of addr
  | Vundef

(** Counters observable by tests: they let unit tests assert that e.g.
    streaming moves the same number of cells in more, smaller
    transfers, or that offload merging reduces [offloads]. *)
type stats = {
  mutable offloads : int;  (** kernel launches (offload regions entered) *)
  mutable transfers : int;  (** discrete transfer operations *)
  mutable cells_h2d : int;
  mutable cells_d2h : int;
  mutable mic_alloc_cells : int;
}

exception Runtime_error of string
exception Out_of_fuel

(** Offload-level event trace, in program order.  Asynchronous
    transfers carry their [signal] tag and kernels their [wait] tag, so
    the pipelining written into the source (Figure 5(b)) is recoverable
    by {!Runtime.Replay}. *)
type event =
  | Ev_transfer of { h2d_cells : int; d2h_cells : int; signal : int option }
  | Ev_wait of int
  | Ev_resident of { cells : int }
      (** device cells the next kernel depends on that this offload did
          {e not} transfer ([nocopy] clauses): replay re-charges them
          when a device reset wipes the shadows *)
  | Ev_kernel of { work : int; wait : int option }
      (** [work] = statements executed inside the offload body *)

type outcome = {
  ret : value;
  output : string;
  stats : stats;
  events : event list;
  globals : (string * value list) list;
      (** final contents of every global, in declaration order:
          array/struct storage flattened cell by cell, scalars as one
          cell — the "final heap state" differential testing compares *)
  work : int;
      (** fuel consumed over the whole run: statements + loop
          iterations + calls executed *)
}

(** Which evaluator executes a program: this tree-walking reference
    interpreter, or the closure-compiling fast evaluator
    ({!Compile_eval}).  The two are observationally identical — same
    output, return value, globals snapshot, stats, event trace, and
    fuel accounting — which the engine-equivalence test suite and the
    [@perf] alias enforce. *)
type engine = Reference | Compiled

val engine_name : engine -> string
val engine_of_string : string -> engine option

val default_fuel : int
(** 10 million: the fuel of a run that names none. *)

val run : ?fuel:int -> Ast.program -> (outcome, string) result
(** Run [main()] under the reference interpreter.  [fuel] bounds the
    number of statements executed (default {!default_fuel}); exhaustion
    reports ["out of fuel"]. *)

val run_output : ?fuel:int -> Ast.program -> string
(** Printed output of a run; raises [Invalid_argument] on any error. *)

(** {1 Per-event profile}

    An opt-in run that returns, beside its outcome, one [detail] per
    event of the trace: how much fuel had been consumed when the event
    was appended, the sections a transfer moved, and the loop a kernel
    ran.  It is what {!Transforms.Streaming.retrace} derives other
    block counts from.  The switch lives in the run's [state], not in a
    global, so runs on pool domains are independent; an unprofiled run
    allocates nothing for it, and pays a branch per event appended, per
    transfer's section list and per kernel (at its launch here, at its
    loop's entry in the compiled engine).
    {!Compile_eval.run_profiled} records the same details, which the
    engine-equivalence suite checks. *)

type loop_profile = {
  lp_first : int;  (** the loop's first index *)
  lp_iterations : int array;
      (** fuel of each completed iteration, in order: its bound check,
          body and step.  The kernel's other fuel — its pragmas, the
          loop entry and the final bound check — is the event's [work]
          less their sum. *)
}

type detail = {
  d_fuel : int;  (** fuel consumed when the event was appended *)
  d_sections : (string * int) list;
      (** [Ev_transfer]: each section's array name and the cells it
          moved between the two heaps, in clause order (ins, inouts,
          then outs); [[]] for other events *)
  d_loop : loop_profile option;
      (** [Ev_kernel] whose offload body is a [for] loop beneath any
          number of [omp] pragmas: that loop; [None] otherwise *)
}

val run_profiled :
  ?fuel:int -> Ast.program -> (outcome * detail list, string) result
(** {!run}, plus the details of the outcome's events, in event order.
    The outcome equals {!run}'s. *)

(** {1 Runtime core, shared with {!Compile_eval}}

    The compiled evaluator reuses this module's heaps, allocator,
    transfer machinery, and value coercions so that both engines
    produce bit-identical heap layouts, stats, and error messages.
    Nothing below is meant for ordinary callers. *)

type heap = { mutable cells : value array; mutable next : int }
(** Concrete so {!Compile_eval} can inline cell access into its
    closures; [next <= Array.length cells] is the allocator invariant
    that makes a range check against [next] sufficient. *)

type profile = {
  budget : int;  (** the run's fuel, so [d_fuel] counts consumption *)
  mutable details : detail list;  (** reversed *)
  mutable kernel_loop : loop_profile option;
      (** the running kernel's loop, until its [Ev_kernel] takes it *)
}
(** A profiled run's recorder, in its [state]. *)

val new_profile : int -> profile
(** A recorder for a run with this much fuel. *)

val details : profile -> detail list
(** The details recorded so far, in event order. *)

type state = {
  cpu : heap;
  mic : heap;
  structs : (string, Ast.struct_def) Hashtbl.t;
      (** first definition of a name wins *)
  funcs : (string, Ast.func) Hashtbl.t;  (** first definition wins *)
  output : Buffer.t;
  mutable fuel : int;
  stats : stats;
  mutable events : event list;  (** reversed *)
  shadows : (int, addr) Hashtbl.t;
      (** CPU base offset -> MIC shadow buffer, reused across offloads *)
  profile : profile option;  (** [Some] only in a profiled run *)
}

type binding = { cell : addr; vty : Ast.ty }
(** A variable's storage: cell address plus static type. *)

val error : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

external format_float : string -> float -> string = "caml_format_float"
(** The runtime primitive behind [Printf]'s [%g] — byte-identical
    output, without the format-interpreter overhead per print. *)

val init_state : ?profile:profile -> Ast.program -> state
val alloc : state -> space -> int -> addr
val load : state -> addr -> value
val store : state -> addr -> value -> unit
val as_int : value -> int
val as_float : value -> float
val as_bool : value -> bool
val as_ptr : value -> addr

val emit : state -> event -> (string * int) list -> unit
(** Append an event to the trace; in a profiled run, with its detail,
    given the transfer's sections ([[]] for other events).  A kernel's
    detail takes the loop the kernel recorded into [kernel_loop]. *)

val move_sections :
  state -> name:('s -> string) -> ('s -> unit) -> 's list -> (string * int) list
(** [move_sections st ~name move sections] applies [move] to each
    section in order.  In a profiled run it returns each section's
    [name] and the cells it moved between the heaps; otherwise [[]]. *)

val sizeof : state -> Ast.ty -> int
val copy_cells : state -> src:addr -> dst:addr -> int -> unit
val shadow_for : state -> cpu_base:addr -> cells_needed:int -> addr
val translate_cells : state -> src:addr -> dst:addr -> int -> unit
val snapshot_binding : state -> binding -> value list
