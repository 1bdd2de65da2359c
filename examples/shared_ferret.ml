(** The shared-memory mechanism of Section V against the MYO
    page-faulting baseline on ferret's numbers (Table III): MYO's
    allocation limit, the whole-segment DMA timing of the machine
    model, and MiniC's [translate()] clause, which rebases pointer
    cells through the delta table (Table I) so a linked structure
    survives the transfer.

    Run with: [dune exec examples/shared_ferret.exe] *)

open Runtime

let cfg = Machine.Config.paper_default

let () =
  (* ferret under MYO: the allocation count alone is fatal *)
  let ferret = Workloads.Registry.find_exn "ferret" in
  let shared = Option.get ferret.shape.Plan.shared in
  let myo = Myo.create cfg.Machine.Config.myo in
  let per_alloc = shared.Plan.shared_bytes / shared.Plan.shared_allocs in
  let outcome =
    let rec go i =
      if i >= shared.Plan.shared_allocs then Ok ()
      else
        match Myo.alloc myo per_alloc with
        | Ok _ -> go (i + 1)
        | Error e -> Error (i, e)
    in
    go 0
  in
  (match outcome with
  | Ok () -> print_endline "MYO accepted all of ferret's allocations (?)"
  | Error (i, e) ->
      Format.printf "MYO fails at allocation %d of %d: %a@." i
        shared.Plan.shared_allocs Myo.pp_error e);

  (* timing on the machine model: page faulting vs whole-segment
     DMA (Table III) *)
  let t_myo = Schedule_gen.region_time cfg ferret.shape Plan.Shared_myo in
  let t_seg =
    Schedule_gen.region_time cfg ferret.shape
      (Plan.Shared_segbuf { seg_bytes = 256 * 1024 * 1024 })
  in
  Printf.printf
    "ferret offload: MYO %.3f s, segmented buffers %.3f s (%.2fx)\n" t_myo
    t_seg (t_myo /. t_seg)

(* the same mechanism at the language level: MiniC's translate()
   transfer clause rebases pointer cells onto the device copy, so a
   linked structure built with real pointers survives the DMA *)
let () =
  let src =
    {|struct node {
        int v;
        struct node* next;
      };
      int main(void) {
        int n = 5;
        struct node nodes[5];
        int sum[1];
        for (i = 0; i < n; i++) {
          nodes[i].v = i * i;
          nodes[i].next = &nodes[(i + 2) % 5];
        }
        struct node* nodes_mic = (struct node*)mic_malloc(10);
        #pragma offload_transfer target(mic:0) in(nodes[0:n] : into(nodes_mic[0:n])) translate(nodes)
        #pragma offload target(mic:0) out(sum[0:1])
        {
          struct node* p = nodes_mic;
          int acc = 0;
          for (k = 0; k < 5; k++) {
            acc = acc + p->v;
            p = p->next;
          }
          sum[0] = acc;
        }
        print_int(sum[0]);
        return 0;
      }|}
  in
  let prog = Minic.Parser.program_of_string_exn src in
  Printf.printf "MiniC translate() walk result: %s"
    (Minic.Interp.run_output prog);
  (* dropping translate() reproduces the raw-pointer failure MYO-free
     transfers would hit *)
  let drop_clause s =
    let marker = " translate(nodes)" in
    let m = String.length marker in
    let rec find i =
      if i + m > String.length s then s
      else if String.sub s i m = marker then
        String.sub s 0 i ^ String.sub s (i + m) (String.length s - i - m)
      else find (i + 1)
    in
    find 0
  in
  let broken = Minic.Parser.program_of_string_exn (drop_clause src) in
  match Minic.Interp.run broken with
  | Error msg -> Printf.printf "without translate(): %s\n" msg
  | Ok _ -> print_endline "without translate(): unexpectedly ran"
