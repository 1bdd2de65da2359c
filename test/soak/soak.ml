(* Soak test for the daemon's memory bound: 20,000 [simulate] requests
   over the registry x variants through one daemon, fed line by line
   as [compc serve] feeds them.  After the first 2,000 the top of the
   major heap is the reference; at every later checkpoint it must stay
   within 1.25x of it, and the daemon sink must hold no spans.  Exits
   1 at the first checkpoint that fails.

   Run with [dune build @soak]. *)

let requests = 20_000
let warm = 2_000
let every = 1_000
let bound = 1.25

let benches = Array.of_list Workloads.Registry.names
let variants = [| "cpu"; "mic-naive"; "mic-optimized" |]

let line i =
  let nb = Array.length benches in
  Printf.sprintf {|{"cmd":"simulate","bench":"%s","opts":{"variant":"%s"}}|}
    benches.(i mod nb)
    variants.(i / nb mod Array.length variants)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let () =
  let t = Serve.create ~config:{ Serve.default_config with jobs = Some 2 } () in
  let reference = ref nan in
  let failed = ref false in
  let i = ref 0 in
  while (not !failed) && !i < requests do
    ignore (Serve.handle_line t (line !i));
    incr i;
    if !i mod every = 0 then begin
      let top = top_heap_mb () in
      let spans = Obs.span_count (Serve.obs t) in
      if !i = warm then reference := top;
      Printf.printf "%6d requests: top heap %7.2f MB, %d spans held\n%!" !i
        top spans;
      if spans > 0 then begin
        Printf.printf "FAIL: the daemon sink holds %d spans\n" spans;
        failed := true
      end
      else if !i > warm && top > bound *. !reference then begin
        Printf.printf "FAIL: top heap %.2f MB is over %.2fx its %.2f MB at %d\n"
          top bound !reference warm;
        failed := true
      end
    end
  done;
  ignore (Serve.finish t);
  if !failed then exit 1;
  Printf.printf "ok: top heap %.2f MB at %d requests, %.2f MB at %d\n"
    (top_heap_mb ()) requests !reference warm
