(** [compc serve]: a long-running JSONL request daemon.

    One request per line — a JSON object with a ["cmd"] field
    ([optimize], [run], [check], [simulate], [stats], [shutdown]) —
    one JSON response per line, in request order.  Malformed input of
    any shape produces a typed error response, never a crash.

    The daemon is built for two properties:

    - {b Determinism.}  A batch is cut at [batch] requests, at a
      [stats]/[shutdown] barrier, at end of input, and when input
      pauses; pool width never decides a cut.  For a given sequence of
      cuts the response {e stream} is byte-identical at any [--jobs]
      width: admission (parse, typecheck, compile) happens serially
      on the main thread, and responses are emitted strictly in
      request order.  Regular-file input never pauses, so
      a session read from a file is cut the same way on every run.
      Over a pipe or a socket the cuts follow the input's timing, and
      only the batch-shape fields of [stats] ([serve.batch],
      [serve.inline_batches], [serve.pooled_batches],
      [serve.paused_batches]) follow the cuts.  Every other field of
      every response is a function of the request stream alone;
      wall-clock time never appears in a response.
    - {b Amortization.}  A request-shared, source-keyed compile cache
      ({!Minic.Compile_eval.Source_cache}) makes repeated sources
      parse-once/compile-once across the whole session, whichever
      domain runs them; front-end failures are cached too.

    Budgets: each executing request gets
    [min(opts.fuel, max_fuel, max_time * 2e6)] interpreter fuel (at
    least 1); an execution that exhausts it gets a [budget_exhausted]
    error response.  The daemon reads no input while a batch runs, so
    a client that sends faster than batches complete waits in its
    pipe or socket, not in the daemon. *)

type config = {
  jobs : int option;  (** pool width; [None] = {!Parallel.default_jobs} *)
  batch : int;
      (** dispatch the queue to the pool at this many requests at most
          (default 8): a cap, not a wait, since {!serve_channels} also
          dispatches whenever its input pauses.  Deliberately {e not}
          defaulted to [jobs]: batch cuts are sequence points, and
          tying them to pool width would make the response stream
          width-dependent. *)
  max_fuel : int;  (** per-request fuel ceiling (default 10,000,000) *)
  max_time : float option;
      (** per-request wall budget in seconds, converted to fuel at
          2,000,000 statements/s; a budget worth [max_fuel] or more
          leaves [max_fuel]; [None] = no time bound *)
  timings : bool;
      (** record per-request wall latencies (for {!latencies}; never
          part of a response) *)
}

val default_config : config

type t
(** Server state: compile cache, daemon [Obs] sink, request queue. *)

val create : ?config:config -> unit -> t

(** {1 Driving the server in-process}

    [bench] and the tests drive these directly; the CLI wraps them in
    {!serve_stdin} / {!serve_socket}. *)

val handle_line : t -> string -> string list
(** Feed one request line; returns the response lines that became
    emittable (responses are held until every earlier request has
    completed, so a line may return zero, one, or many).  Blank lines
    are ignored. *)

val finish : t -> string list
(** Run everything still queued and return the remaining responses:
    the end-of-input barrier, and what {!serve_channels} calls when its
    input pauses. *)

val shutdown_requested : t -> bool
(** True once a [shutdown] request has been served. *)

(** {1 Introspection} *)

val obs : t -> Obs.t
(** The daemon sink: each request's private sink is absorbed
    ({!Obs.absorb}) in request order, so it holds counters,
    histograms and per-kind span totals, and no spans
    ([Obs.span_count] stays 0).  Its size does not grow with requests
    served, and its profile is identical at any pool width. *)

val cache_hits : t -> int
val cache_misses : t -> int

val latencies : t -> float list
(** Per-request wall latencies (seconds, admission to completion),
    oldest first; empty unless [config.timings]. *)

(** {1 Transports} *)

(** Line input that knows when its source has paused.  Lines split
    exactly as [input_line] splits them: on ['\n'] only (a ['\r']
    stays in the line), with a final unterminated line delivered at
    end of input. *)
module Line_reader : sig
  type t

  val create : in_channel -> t
  (** Read through the channel's own buffer; the channel must not be
      read otherwise afterwards. *)

  val read : t -> string option
  (** The next line, blocking until one is complete; [None] at end of
      input.  Raises [Sys_error] as [input] does. *)

  val paused : t -> bool
  (** True when no complete line is buffered and [Unix.select] with a
      zero timeout finds the descriptor unreadable (a [select] error
      counts as a pause).  Costs no system call while lines are
      buffered.  A regular file is always readable, so file input
      never pauses. *)
end

val serve_channels : t -> in_channel -> out_channel -> unit
(** Request loop: read lines until EOF or [shutdown], writing each run
    of responses as it becomes ready and flushing once per run.  When
    a request is queued and the input pauses, it calls {!finish} before
    it blocks for input, so a queued request waits for more requests
    only while they are already arriving; each batch dispatched that
    way counts in [serve.paused_batches]. *)

val serve_stdin : t -> unit

val serve_socket : t -> path:string -> unit
(** Bind a Unix-domain socket at [path] and serve one connection at a
    time until a [shutdown] request; state (cache, stats) persists
    across connections.  Ignores SIGPIPE, so a client that hangs up
    before reading its responses loses them without ending the
    daemon.  The socket file is removed on exit. *)

val client : path:string -> in_channel -> out_channel -> (unit, string) result
(** Client for the socket transport: connect (retrying while the
    server starts up), send [in_channel]'s lines from a helper domain
    while copying response lines to [out_channel], then half-close.
    The sender flushes the socket whenever [in_channel] pauses and the
    copier flushes [out_channel] whenever the socket pauses, so each
    request is answered as it is typed, while a script read from a
    file still goes out in large writes.  [Error] when the connection
    fails, when [out_channel] cannot be written (it is then closed,
    so no later flush retries the write), or when the server closes
    the connection before answering every non-blank line.  Ignores
    SIGPIPE, so a server that goes away surfaces as that [Error]. *)
