open Helpers

(** The shared-memory mechanism at the language level: the
    [translate()] transfer clause rebases pointer-valued cells onto the
    device copy during the DMA — Section V-B's delta-table translation
    as MiniC semantics.  Without it, a pointer-based structure arrives
    on the device with host addresses and faults on first dereference,
    which is precisely the problem the paper's augmented pointers
    solve. *)

let list_program ~with_translate =
  Printf.sprintf
    {|struct node {
        int v;
        struct node* next;
      };
      int main(void) {
        int n = 8;
        struct node nodes[8];
        int sum[1];
        for (i = 0; i < n; i++) {
          nodes[i].v = i * 3 + 1;
        }
        for (i = 0; i < n; i++) {
          nodes[i].next = &nodes[(i * 5 + 1) %% 8];
        }
        struct node* nodes_mic = (struct node*)mic_malloc(16);
        #pragma offload_transfer target(mic:0) in(nodes[0:n] : into(nodes_mic[0:n]))%s
        #pragma offload target(mic:0) out(sum[0:1])
        {
          struct node* p = nodes_mic;
          int acc = 0;
          for (k = 0; k < 12; k++) {
            acc = acc + p->v;
            p = p->next;
          }
          sum[0] = acc;
        }
        print_int(sum[0]);
        return 0;
      }|}
    (if with_translate then " translate(nodes)" else "")

(* the same walk, on the host, as ground truth *)
let expected_sum () =
  let v i = (i * 3) + 1 in
  let next i = ((i * 5) + 1) mod 8 in
  let rec go i steps acc =
    if steps = 0 then acc else go (next i) (steps - 1) (acc + v i)
  in
  go 0 12 0

(* Both evaluators rebase through [Interp.translate_cells] but compile
   their transfer clauses separately, so every case below runs under
   both and demands the same result. *)
let engines_run src =
  let prog = parse src in
  match
    (Minic.Interp.run prog, Minic.Compile_eval.run_compiled prog)
  with
  | Ok r, Ok c ->
      Alcotest.(check string)
        "engines agree" r.Minic.Interp.output c.Minic.Interp.output;
      Ok r.Minic.Interp.output
  | Error r, Error c ->
      Alcotest.(check string) "engines agree on the error" r c;
      Error r
  | Ok _, Error e | Error e, Ok _ ->
      Alcotest.failf "one engine failed alone: %s" e

let engines_output src =
  match engines_run src with
  | Ok out -> out
  | Error e -> Alcotest.failf "runtime error: %s" e

let expect_not_transferred src =
  match engines_run src with
  | Error msg ->
      Alcotest.(check bool)
        "faults on a host pointer" true
        (contains ~sub:"not transferred" msg)
  | Ok out -> Alcotest.failf "expected a device fault, got %S" out

let lines xs = String.concat "" (List.map (Printf.sprintf "%d\n") xs)

(* [n] objects of [fields] ints and one link, linked [i -> (7i+3) mod n]
   across the whole array, moved to a device buffer by one translated
   DMA.  The device reads every object's fields and, through its
   translated link, the first field of the target. *)
let graph_program ~n ~fields =
  let f j = Printf.sprintf "f%d" j in
  let each sep g = String.concat sep (List.init fields g) in
  Printf.sprintf
    {|struct obj {
        %s
        struct obj* link;
      };
      int main(void) {
        int n = %d;
        struct obj g[%d];
        int res[%d];
        for (i = 0; i < n; i++) {
          %s
          g[i].link = &g[(i * 7 + 3) %% n];
        }
        struct obj* g_mic = (struct obj*)mic_malloc(%d);
        #pragma offload_transfer target(mic:0) in(g[0:n] : into(g_mic[0:n])) translate(g)
        #pragma offload target(mic:0) out(res[0:n])
        {
          for (i = 0; i < n; i++) {
            struct obj* p = g_mic + i;
            res[i] = (%s) * 1000 + p->link->f0;
          }
        }
        for (i = 0; i < n; i++) { print_int(res[i]); }
        return 0;
      }|}
    (each "\n" (fun j -> Printf.sprintf "int %s;" (f j)))
    n n n
    (each "\n" (fun j -> Printf.sprintf "g[i].%s = i * 31 + %d;" (f j) j))
    (n * (fields + 1))
    (each " + " (fun j -> "p->" ^ f j))

let graph_expected ~n ~fields =
  lines
    (List.init n (fun i ->
         let own = (fields * i * 31) + (fields * (fields - 1) / 2) in
         (own * 1000) + (((i * 7) + 3) mod n * 31)))

(* a doubly linked chain of 8 nodes, nodes [2..5] moved by one
   translated DMA; the device starts at node 2's copy and runs [body] *)
let window_program body =
  Printf.sprintf
    {|struct node {
        int v;
        struct node* next;
        struct node* prev;
      };
      int main(void) {
        int n = 8;
        struct node nodes[8];
        int out[1];
        for (i = 0; i < n; i++) {
          nodes[i].v = i + 1;
          nodes[i].next = &nodes[(i + 1) %% 8];
          nodes[i].prev = &nodes[(i + 7) %% 8];
        }
        struct node* w = (struct node*)mic_malloc(12);
        #pragma offload_transfer target(mic:0) in(nodes[2:4] : into(w[0:4])) translate(nodes)
        #pragma offload target(mic:0) out(out[0:1])
        {
          struct node* p = w;
          %s
          out[0] = p->v;
        }
        print_int(out[0]);
        return 0;
      }|}
    body

let suite =
  [
    tc "translated pointer structure walks on the device" (fun () ->
        let out = output_of (list_program ~with_translate:true) in
        Alcotest.(check string)
          "sum" (Printf.sprintf "%d\n" (expected_sum ())) out);
    tc "without translate() the device faults on host pointers" (fun () ->
        let prog = parse (list_program ~with_translate:false) in
        match Minic.Interp.run prog with
        | Error msg ->
            Alcotest.(check bool)
              "fault explains itself" true
              (contains ~sub:"not transferred" msg)
        | Ok _ -> Alcotest.fail "expected a device fault");
    tc "translate clause round-trips through the pretty-printer" (fun () ->
        let prog = parse (list_program ~with_translate:true) in
        let printed = Minic.Pretty.program_to_string prog in
        Alcotest.(check bool)
          "clause printed" true
          (contains ~sub:"translate(nodes)" printed);
        let prog' = parse printed in
        Alcotest.(check bool)
          "AST preserved" true
          (Minic.Ast.equal_program prog prog'));
    tc "translate on a scalar is rejected by the type checker" (fun () ->
        let src =
          {|int main(void) {
              int x = 1;
              float a[2];
              float* d = (float*)mic_malloc(2);
              #pragma offload_transfer target(mic:0) in(a[0:2] : into(d[0:2])) translate(x)
              return 0;
            }|}
        in
        match Minic.Typecheck.check_program (parse src) with
        | Error msg ->
            Alcotest.(check bool)
              "mentions translate" true
              (contains ~sub:"translate" msg)
        | Ok _ -> Alcotest.fail "expected a type error");
    tc "pointers outside the section are left alone" (fun () ->
        (* a pointer to a separate host array must not be rebased *)
        let src =
          {|struct cell {
              int v;
              int* other;
            };
            int main(void) {
              int external[1];
              struct cell cs[2];
              external[0] = 99;
              cs[0].v = 7;
              cs[0].other = external;
              cs[1].v = 8;
              cs[1].other = external;
              struct cell* cs_mic = (struct cell*)mic_malloc(4);
              #pragma offload_transfer target(mic:0) in(cs[0:2] : into(cs_mic[0:2])) translate(cs)
              // back on the host, the device copy's 'other' still points
              // at host memory; reading it from host code is fine
              #pragma offload_transfer target(mic:0) out(cs_mic[0:2] : into(cs[0:2])) translate(cs_mic)
              print_int(cs[0].v);
              print_int(cs[0].other[0]);
              return 0;
            }|}
        in
        Alcotest.(check string) "values" "7\n99\n" (output_of src));
    prop "random object graphs survive the transfer" ~count:40
      QCheck.(pair (int_range 1 40) (int_range 1 5))
      (fun (n, fields) ->
        engines_output (graph_program ~n ~fields)
        = graph_expected ~n ~fields);
    tc "pointer arithmetic on a translated pointer stays in the device copy"
      (fun () ->
        let src =
          {|struct node {
              int v;
              struct node* next;
            };
            int main(void) {
              int n = 6;
              struct node nodes[6];
              int out[3];
              for (i = 0; i < n; i++) {
                nodes[i].v = 10 * i;
                nodes[i].next = &nodes[(i + 2) % 6];
              }
              struct node* d = (struct node*)mic_malloc(12);
              #pragma offload_transfer target(mic:0) in(nodes[0:n] : into(d[0:n])) translate(nodes)
              #pragma offload target(mic:0) out(out[0:3])
              {
                struct node* p = d[1].next;
                struct node* q = p + 1;
                struct node* r = q - 3;
                out[0] = p->v;
                out[1] = q->v;
                out[2] = r->next->v;
              }
              print_int(out[0]);
              print_int(out[1]);
              print_int(out[2]);
              return 0;
            }|}
        in
        (* node 1 links to node 3; one past it is node 4, three back
           node 1, whose link is node 3 again *)
        Alcotest.(check string) "walk" (lines [ 30; 40; 30 ])
          (engines_output src));
    tc "a partial section rebases only pointers into the section" (fun () ->
        (* nodes 2..5 are moved: 2 -> 3 -> 4 -> 5 stays on the device *)
        Alcotest.(check string) "inside the window" (lines [ 6 ])
          (engines_output
             (window_program "p = p->next; p = p->next; p = p->next;"));
        (* node 5's link to node 6 and node 2's link back to node 1 lie
           just outside the section: they keep their host addresses *)
        expect_not_transferred
          (window_program
             "p = p->next; p = p->next; p = p->next; p = p->next;");
        expect_not_transferred (window_program "p = p->prev;"));
    tc "translating back restores host pointers" (fun () ->
        let src =
          {|struct node {
              int v;
              struct node* next;
            };
            int main(void) {
              int n = 6;
              struct node nodes[6];
              for (i = 0; i < n; i++) {
                nodes[i].v = i;
                nodes[i].next = &nodes[(i + 1) % 6];
              }
              struct node* d = (struct node*)mic_malloc(12);
              #pragma offload_transfer target(mic:0) in(nodes[0:n] : into(d[0:n])) translate(nodes)
              #pragma offload target(mic:0)
              {
                struct node* p = d;
                for (k = 0; k < 6; k++) {
                  p->next->v = p->next->v + 100;
                  p = p->next;
                }
              }
              #pragma offload_transfer target(mic:0) out(d[0:n] : into(nodes[0:n])) translate(d)
              int home = 0;
              struct node* q = &nodes[0];
              for (k = 0; k < 6; k++) {
                if (q->next == &nodes[(k + 1) % 6]) { home = home + 1; }
                print_int(q->v);
                q = q->next;
              }
              print_int(home);
              return 0;
            }|}
        in
        Alcotest.(check string) "values and links"
          (lines [ 100; 101; 102; 103; 104; 105; 6 ])
          (engines_output src));
    tc "an into() offset shifts the rebase by the same offset" (fun () ->
        let src =
          {|struct node {
              int v;
              struct node* next;
            };
            int main(void) {
              int n = 4;
              struct node nodes[4];
              int out[3];
              for (i = 0; i < n; i++) {
                nodes[i].v = i * 11;
                nodes[i].next = &nodes[(i + 3) % 4];
              }
              struct node* buf = (struct node*)mic_malloc(14);
              #pragma offload_transfer target(mic:0) in(nodes[0:n] : into(buf[3:n])) translate(nodes)
              #pragma offload target(mic:0) out(out[0:3])
              {
                out[0] = 0;
                out[1] = 0;
                if (buf[3].next == buf + 6) { out[0] = 1; }
                if (buf[4].next == buf + 3) { out[1] = 1; }
                out[2] = buf[3].next->next->v;
              }
              print_int(out[0]);
              print_int(out[1]);
              print_int(out[2]);
              return 0;
            }|}
        in
        (* node 0 -> node 3 -> node 2, each rebased to buf[3 + k] *)
        Alcotest.(check string) "rebased" (lines [ 1; 1; 22 ])
          (engines_output src));
    tc "translate on an offload's own in() rebases onto the device shadow"
      (fun () ->
        let src =
          {|struct rec {
              int w;
              struct rec* buddy;
            };
            int main(void) {
              int n = 5;
              struct rec rs[5];
              int out[5];
              for (i = 0; i < n; i++) {
                rs[i].w = i * i;
                rs[i].buddy = &rs[(i * 2 + 1) % 5];
              }
              #pragma offload target(mic:0) in(rs[0:n]) translate(rs) out(out[0:n])
              #pragma omp parallel for
              for (i = 0; i < n; i++) {
                out[i] = rs[i].buddy->w;
              }
              for (i = 0; i < n; i++) { print_int(out[i]); }
              return 0;
            }|}
        in
        Alcotest.(check string) "buddies"
          (lines (List.init 5 (fun i -> let b = ((i * 2) + 1) mod 5 in b * b)))
          (engines_output src));
    tc "each translated structure rebases onto its own copy" (fun () ->
        let src =
          {|struct node {
              int v;
              struct node* next;
            };
            int main(void) {
              struct node a[3];
              struct node b[5];
              int out[2];
              for (i = 0; i < 3; i++) {
                a[i].v = i + 1;
                a[i].next = &a[(i + 1) % 3];
              }
              for (i = 0; i < 5; i++) {
                b[i].v = 10 * (i + 1);
                b[i].next = &b[(i + 2) % 5];
              }
              struct node* da = (struct node*)mic_malloc(6);
              struct node* db = (struct node*)mic_malloc(10);
              #pragma offload_transfer target(mic:0) in(a[0:3] : into(da[0:3]), b[0:5] : into(db[0:5])) translate(a, b)
              #pragma offload target(mic:0) out(out[0:2])
              {
                struct node* p = da;
                struct node* q = db;
                int sa = 0;
                int sb = 0;
                for (k = 0; k < 4; k++) {
                  sa = sa + p->v;
                  sb = sb + q->v;
                  p = p->next;
                  q = q->next;
                }
                out[0] = sa;
                out[1] = sb;
              }
              print_int(out[0]);
              print_int(out[1]);
              return 0;
            }|}
        in
        (* a: 1 + 2 + 3 + 1; b: nodes 0, 2, 4, 1 *)
        Alcotest.(check string) "walks" (lines [ 7; 110 ])
          (engines_output src));
  ]
