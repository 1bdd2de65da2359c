(** Persistent domain pool with deterministic result ordering.  See the
    interface for the contract; the notes below are about why the
    sequential and parallel runs cannot diverge, and why no call can
    wait for a helper that never arrives.

    A call is a {e job}.  Workers claim the next unclaimed index with
    an atomic fetch-and-add and write the result into a per-index
    slot.  Claim order may vary between runs, but slots are keyed by
    submission index, so the merged result list (and the exception
    choice: lowest failing index) is a pure function of the tasks
    themselves.

    The calling domain drains its own job.  Helper domains are spawned
    on demand, parked on [wake] between jobs, never joined, and
    admitted [jobs - 1] at most to any one job.  Once the caller finds
    no index left to claim it waits only for tasks a helper has already
    claimed and is running, so a job finishes even if no helper ever
    arrives: nested calls and concurrent callers cannot deadlock. *)

let default_jobs () =
  match Sys.getenv_opt "COMP_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let jobs_of = function Some n -> max 1 n | None -> default_jobs ()

(* One slot per task: filled exactly once by whichever worker claimed
   the index.  No lock is needed for the slots — indices are claimed
   uniquely, and the caller reads them only after observing every
   task's increment of [finished], which publishes the writes. *)
type 'a slot = Pending | Done of 'a | Raised of exn

type job = {
  tasks : int;
  run_task : int -> unit;  (** never raises: outcomes go to the slots *)
  next : int Atomic.t;  (** next unclaimed index *)
  finished : int Atomic.t;  (** tasks completed *)
  mutable room : int;  (** helpers it may still admit; under [lock] *)
}

(* Pool state, all guarded by [lock]. *)
let lock = Mutex.create ()
let wake = Condition.create () (* parked helpers wait here *)
let done_ = Condition.create () (* callers wait here for helpers *)
let open_jobs : job list ref = ref [] (* oldest first *)
let helpers = ref 0
let parked = ref 0

(* The runtime caps domains per process (128 in OCaml 5.1); past the
   first refused spawn, jobs run on the helpers that exist. *)
let spawn_refused = ref false

let drain job =
  let rec loop () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.tasks then begin
      job.run_task i;
      Atomic.incr job.finished;
      loop ()
    end
  in
  loop ()

(* Under [lock]: the oldest job with room and an unclaimed task. *)
let rec admit () =
  match
    List.find_opt
      (fun j -> j.room > 0 && Atomic.get j.next < j.tasks)
      !open_jobs
  with
  | Some j ->
      j.room <- j.room - 1;
      j
  | None ->
      incr parked;
      Condition.wait wake lock;
      decr parked;
      admit ()

let rec helper () =
  let job = Mutex.protect lock admit in
  drain job;
  (* the helper that completed the last task sees the full count *)
  if Atomic.get job.finished = job.tasks then
    Mutex.protect lock (fun () -> Condition.broadcast done_);
  helper ()

(* Publish [job] and wake at most as many parked helpers as it has
   room for, spawning first if fewer helpers exist. *)
let post job =
  Mutex.protect lock (fun () ->
      let want = job.room in
      open_jobs := !open_jobs @ [ job ];
      while !helpers < want && not !spawn_refused do
        match Domain.spawn helper with
        | (_ : unit Domain.t) -> incr helpers
        | exception Failure _ -> spawn_refused := true
      done;
      for _ = 1 to min want !parked do
        Condition.signal wake
      done)

(* Close [job] to helpers, then wait for the tasks they claimed. *)
let retire job =
  Mutex.protect lock (fun () ->
      open_jobs := List.filter (fun j -> j != job) !open_jobs;
      while Atomic.get job.finished < job.tasks do
        Condition.wait done_ lock
      done)

let run ?jobs n f =
  if n < 0 then invalid_arg "Parallel.run: negative task count";
  let jobs = min (jobs_of jobs) n in
  if n = 0 then []
  else if jobs <= 1 then
    (* inline: byte-for-byte the sequential run, no helper involved *)
    List.init n f
  else begin
    let slots = Array.make n Pending in
    let job =
      {
        tasks = n;
        run_task =
          (fun i ->
            slots.(i) <- (match f i with v -> Done v | exception e -> Raised e));
        next = Atomic.make 0;
        finished = Atomic.make 0;
        room = jobs - 1;
      }
    in
    post job;
    drain job;
    retire job;
    (* surface the lowest-index failure, independent of which worker
       hit it first *)
    Array.iteri
      (fun _ s -> match s with Raised e -> raise e | _ -> ())
      slots;
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Pending | Raised _ -> assert false (* all claimed, none raised *))
         slots)
  end

let map ?jobs f xs =
  let arr = Array.of_list xs in
  run ?jobs (Array.length arr) (fun i -> f arr.(i))

(* splitmix64 finalizer (same constants as Fault.draw): uncorrelated
   per-index streams from one root seed, independent of pool width. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let derive_seed ~root index =
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int root) 0x9e3779b97f4a7c15L)
         (Int64.of_int index))
  in
  Int64.to_int (Int64.shift_right_logical z 2)
