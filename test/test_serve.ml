(* The serve daemon: protocol (typed errors, never a crash), budgets,
   the request-shared compile cache, the determinism contract, and the
   transport.  For a given sequence of batch cuts the response stream
   is byte-identical at any pool width, because admission is serial,
   pool width never decides a cut, and emission is strictly in request
   order.  Over a pipe the daemon also cuts a batch whenever its input
   pauses: that moves only the batch-shape fields of [stats], and a
   request is answered without waiting for a full batch.  The
   transport's line reader splits lines as [input_line] does. *)

open Helpers
module J = Obs.Json

let cfg ?jobs ?(batch = 4) ?(max_fuel = 10_000_000) ?max_time () =
  { Serve.jobs; batch; max_fuel; max_time; timings = false }

(* Feed a scripted session; responses come back in request order. *)
let drive config lines =
  let t = Serve.create ~config () in
  let rs = List.concat_map (Serve.handle_line t) lines in
  let tail = Serve.finish t in
  (t, rs @ tail)

let src_print n =
  Printf.sprintf "int main(void) { print_int(%d); return 0; }" n

let src_loop = "int main(void) { while (1) {} return 0; }"

let req_run ?opts src =
  let opts =
    match opts with None -> "" | Some o -> Printf.sprintf ",\"opts\":%s" o
  in
  Printf.sprintf "{\"cmd\":\"run\",\"src\":%s%s}"
    (J.to_string (J.String src))
    opts

let parse_response line =
  match J.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparsable response %S: %s" line e

let get name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (J.to_string j)

let error_code j =
  match J.member "error" j with Some (J.String s) -> Some s | _ -> None

(* The seeded request mix used by the determinism tests: repeated
   sources, distinct sources, malformed lines, over-budget programs,
   an optimize, and interleaved stats barriers. *)
let mixed_session =
  [
    req_run (src_print 1);
    req_run (src_print 2);
    req_run (src_print 1);
    "this is not json";
    req_run ~opts:"{\"fuel\":50}" src_loop;
    req_run (src_print 3);
    "{\"cmd\":\"levitate\"}";
    "{\"cmd\":\"run\",\"src\":\"int main(void) { return }\"}";
    req_run (src_print 1);
    "{\"cmd\":\"stats\"}";
    req_run (src_print 2);
    req_run (src_print 4);
    "{\"cmd\":\"simulate\",\"bench\":\"blackscholes\"}";
    "{\"cmd\":\"simulate\",\"bench\":\"nope\"}";
    req_run (src_print 1);
    "{\"cmd\":\"stats\"}";
    "{\"cmd\":\"shutdown\"}";
  ]

(* {1 The daemon sink keeps totals} *)

let variants =
  [
    ("cpu", Comp.Cpu_parallel);
    ("mic-naive", Comp.Mic_naive);
    ("mic-optimized", Comp.Mic_optimized);
  ]

(* [n] simulate requests cycling over the registry x variants *)
let simulate_requests n =
  let ws = Array.of_list Workloads.Registry.all in
  let vs = Array.of_list variants in
  List.init n (fun i ->
      let w = ws.(i mod Array.length ws) in
      let v = vs.(i / Array.length ws mod Array.length vs) in
      (w, v))

(* {1 Protocol fuzzing}

   Request streams mixing valid requests, truncated and corrupted
   lines, fields of the wrong type, oversized fuel and blank lines. *)

let typed_errors =
  [
    "bad_json"; "bad_request"; "unknown_cmd"; "parse_error"; "type_error";
    "unknown_benchmark"; "budget_exhausted"; "runtime_error";
  ]

let fuzz_sources =
  [
    src_print 1;
    src_print 2;
    src_loop;
    (* about 40,000 statements: enough for a batch to be pooled *)
    "int main(void) { int s = 0; int i; for (i = 0; i < 10000; i++) { s = \
     s + i; } print_int(s); return 0; }";
    "int main(void) { int a = 0; return 1 / a; }";
    "int main(void) { float a[4]; a[9] = 1.0; return 0; }";
    "int main(void) { float a[8]; float b[8]; int i; for (i = 0; i < 8; \
     i++) { a[i] = (float)i; } #pragma omp parallel for\n for (i = 0; i \
     < 8; i++) { b[i] = a[i] + 1.0; } print_float(b[3]); return 0; }";
    "int main(void) { return }";
    "int main(void) { return y; }";
  ]

let gen_valid =
  let open QCheck.Gen in
  let str s = J.String s in
  let id =
    frequency
      [
        (2, return []);
        (2, map (fun i -> [ ("id", J.Int i) ]) (int_range (-5) 1000));
        (1, map (fun i -> [ ("id", str (Printf.sprintf "r%d" i)) ]) nat);
      ]
  in
  let fuel =
    frequency
      [
        (4, return []);
        (2, map (fun f -> [ ("fuel", J.Int f) ]) (int_range 1 5_000));
        (1, return [ ("fuel", J.Int max_int) ]);
        (1, map (fun f -> [ ("fuel", J.Int f) ]) (int_range (-3) 0));
      ]
  in
  let variant =
    oneofl
      [
        [];
        [ ("variant", str "cpu") ];
        [ ("variant", str "mic-naive") ];
        [ ("variant", str "warp") ];
      ]
  in
  let opts = function [] -> [] | fields -> [ ("opts", J.Obj fields) ] in
  let src = oneofl fuzz_sources in
  let bench = oneofl (Workloads.Registry.names @ [ "nope" ]) in
  let request =
    frequency
      [
        ( 6,
          map3
            (fun src f i ->
              i @ [ ("cmd", str "run"); ("src", str src) ] @ opts f)
            src fuel id );
        ( 1,
          map2
            (fun b i -> i @ [ ("cmd", str "run"); ("bench", str b) ])
            bench id );
        ( 1,
          map2
            (fun src i -> i @ [ ("cmd", str "optimize"); ("src", str src) ])
            src id );
        ( 1,
          map3
            (fun src f i ->
              i @ [ ("cmd", str "check"); ("src", str src) ] @ opts f)
            src fuel id );
        ( 2,
          map3
            (fun b v i ->
              i @ [ ("cmd", str "simulate"); ("bench", str b) ] @ opts v)
            bench variant id );
        (1, map (fun i -> i @ [ ("cmd", str "stats") ]) id);
        (1, return [ ("cmd", str "shutdown") ]);
      ]
  in
  map (fun fields -> J.to_string (J.Obj fields)) request

(* a field of the wrong type, spliced into an otherwise valid request *)
let gen_wrong_type =
  let open QCheck.Gen in
  let bad =
    oneofl
      [
        "7"; "null"; "true"; "[1,2]"; "{}"; "1.5"; "\"x\"";
        "99999999999999999999999"; "1e400"; "-0";
      ]
  in
  let field =
    oneofl
      [
        Printf.sprintf {|{"cmd":%s}|};
        Printf.sprintf {|{"cmd":"run","src":%s}|};
        Printf.sprintf {|{"cmd":"simulate","bench":%s}|};
        Printf.sprintf {|{"cmd":"run","src":"x","opts":%s}|};
        Printf.sprintf
          {|{"cmd":"run","src":"int main(void) { return 0; }","opts":{"fuel":%s}}|};
        Printf.sprintf
          {|{"cmd":"simulate","bench":"cg","opts":{"variant":%s}}|};
        Printf.sprintf {|{"id":%s,"cmd":"stats"}|};
        Fun.id;
      ]
  in
  map2 (fun f b -> f b) field bad

(* truncate, overwrite, insert or delete one character; never a
   newline, which the transport would read as a line break *)
let mutate_line line =
  let open QCheck.Gen in
  let n = String.length line in
  let char =
    map (fun c -> if c = '\n' then ' ' else c) (map Char.chr (int_range 0 126))
  in
  if n = 0 then return line
  else
    frequency
      [
        (2, map (fun k -> String.sub line 0 k) (int_bound (n - 1)));
        ( 2,
          map2
            (fun k c -> String.mapi (fun i x -> if i = k then c else x) line)
            (int_bound (n - 1))
            char );
        ( 1,
          map2
            (fun k c ->
              String.sub line 0 k ^ String.make 1 c ^ String.sub line k (n - k))
            (int_bound n) char );
        ( 1,
          map
            (fun k -> String.sub line 0 k ^ String.sub line (k + 1) (n - k - 1))
            (int_bound (n - 1)) );
      ]

let gen_line =
  let open QCheck.Gen in
  frequency
    [
      (5, gen_valid);
      (4, gen_valid >>= mutate_line);
      (2, gen_wrong_type);
      (1, oneofl [ ""; "   "; "\t" ]);
      ( 1,
        map
          (fun cs -> String.concat "" (List.map (String.make 1) cs))
          (list_size (int_range 1 30) (map Char.chr (int_range 32 126))) );
    ]

(* a stream and the batch size it is served with *)
let arb_stream =
  QCheck.make
    ~print:(fun (batch, lines) ->
      Printf.sprintf "batch=%d\n%s" batch (String.concat "\n" lines))
    QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 1 24) gen_line))

(* the id a response must echo: the request's own Int/String id, else
   its sequence number among non-blank lines *)
let expected_id seq line =
  match J.of_string line with
  | Ok (J.Obj _ as j) -> (
      match J.member "id" j with
      | Some ((J.Int _ | J.String _) as id) -> id
      | _ -> J.Int seq)
  | _ -> J.Int seq

let stream_ok (batch, lines) =
  let config jobs = cfg ~jobs ~batch ~max_fuel:200_000 () in
  let _, r1 = drive (config 1) lines in
  let _, r2 = drive (config 2) lines in
  let requests = List.filter (fun l -> String.trim l <> "") lines in
  let well_formed seq line response =
    let j = parse_response response in
    get "id" j = expected_id seq line
    &&
    match (J.member "ok" j, J.member "error" j) with
    | Some (J.Bool true), None -> true
    | Some (J.Bool false), Some (J.String code) -> List.mem code typed_errors
    | _ -> false
  in
  r1 = r2
  && List.length r1 = List.length requests
  && List.for_all2 Fun.id
       (List.mapi (fun i line -> well_formed (i + 1) line) requests)
       r1

(* {1 The transport}

   [Serve.serve_channels] on its own domain over a pipe pair, as the
   socket transport and the benchmark's daemon run it. *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* what [fd] holds within [timeout] seconds, appended to [buf]; false
   at end of stream *)
let read_some ~timeout fd buf =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> true
  | _ ->
      let b = Bytes.create 65536 in
      let n = Unix.read fd b 0 (Bytes.length b) in
      Buffer.add_subbytes buf b 0 n;
      n > 0

let read_to_eof fd buf = while read_some ~timeout:1. fd buf do () done

(* The daemon closes its output when it returns; [join] waits for it,
   then closes the request pipe's read end, which stays open until
   then so that writes after a [shutdown] never meet a closed pipe. *)
let serve_on_pipes config =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let t = Serve.create ~config () in
  let ic = Unix.in_channel_of_descr req_r in
  let daemon =
    Domain.spawn (fun () ->
        let oc = Unix.out_channel_of_descr resp_w in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> Serve.serve_channels t ic oc))
  in
  let join () =
    Domain.join daemon;
    close_in_noerr ic
  in
  (req_w, resp_r, join)

let response_lines buf =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))

(* One delivery of a request stream: each line's terminator ("\r\n"
   keeps its '\r' in the line, as [input_line] does), an optional '\r'
   spliced into the line (JSON whitespace, or a stray byte inside a
   token), whether the last line is terminated, and a seed for how the
   bytes are cut into writes and how long the writer pauses between
   them. *)
type delivery = {
  d_batch : int;
  d_lines : (string * bool * int option) list;
      (** line, CRLF-terminated, where a '\r' is spliced in *)
  d_last_nl : bool;
  d_seed : int;
}

let delivered_lines d =
  List.map
    (fun (l, crlf, cr) ->
      let l =
        match cr with
        | Some k ->
            let k = k mod (String.length l + 1) in
            String.sub l 0 k ^ "\r" ^ String.sub l k (String.length l - k)
        | None -> l
      in
      if crlf then l ^ "\r" else l)
    d.d_lines

(* the bytes on the wire, and the lines [input_line] reads from them *)
let wire d =
  let lines = delivered_lines d in
  let text = String.concat "\n" lines ^ if d.d_last_nl then "\n" else "" in
  let read =
    if d.d_last_nl then lines
    else
      (* an empty unterminated last line is no line at all *)
      match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  (text, read)

let arb_delivery =
  let open QCheck.Gen in
  let line =
    triple gen_line
      (frequency [ (3, return false); (1, return true) ])
      (frequency [ (3, return None); (1, map Option.some nat) ])
  in
  let gen =
    int_range 1 8 >>= fun d_batch ->
    map3
      (fun d_lines d_last_nl d_seed -> { d_batch; d_lines; d_last_nl; d_seed })
      (list_size (int_range 1 24) line)
      bool nat
  in
  QCheck.make
    ~print:(fun d ->
      Printf.sprintf "batch=%d seed=%d\n%S" d.d_batch d.d_seed (fst (wire d)))
    gen

(* [text] written in random pieces with random pauses of 0-1 ms,
   the write end held open until the last piece is out *)
let send_paced ~seed fd text =
  let st = Random.State.make [| seed |] in
  let n = String.length text in
  let rec go off =
    if off < n then begin
      let len =
        min (n - off)
          (if Random.State.int st 4 = 0 then 1 + Random.State.int st 16
           else 16 + Random.State.int st 1024)
      in
      write_all fd (String.sub text off len);
      if Random.State.bool st then Unix.sleepf (Random.State.float st 0.001);
      go (off + len)
    end
  in
  go 0

(* the daemon stops reading at its first shutdown *)
let through_shutdown responses =
  let rec go acc = function
    | [] -> List.rev acc
    | r :: rest -> (
        let j = parse_response r in
        match (J.member "cmd" j, J.member "ok" j) with
        | Some (J.String "shutdown"), Some (J.Bool true) -> List.rev (r :: acc)
        | _ -> go (r :: acc) rest)
  in
  go [] responses

(* a stats response without the fields that follow the batch cuts *)
let rec without_batch_shape = function
  | J.Obj fields ->
      J.Obj
        (List.filter_map
           (fun (k, v) ->
             if
               List.mem k
                 [
                   "serve.batch"; "serve.inline_batches";
                   "serve.pooled_batches"; "serve.paused_batches";
                 ]
             then None
             else Some (k, without_batch_shape v))
           fields)
  | v -> v

let same_response expected got =
  let je = parse_response expected and jg = parse_response got in
  match J.member "cmd" je with
  | Some (J.String "stats") ->
      J.to_string (without_batch_shape je) = J.to_string (without_batch_shape jg)
  | _ -> String.equal expected got

let paced_ok d =
  let text, read = wire d in
  let config jobs = cfg ~jobs ~batch:d.d_batch ~max_fuel:200_000 () in
  let _, reference = drive (config 1) read in
  let expected = through_shutdown reference in
  List.for_all
    (fun jobs ->
      let req_w, resp_r, join = serve_on_pipes (config jobs) in
      let buf = Buffer.create 4096 in
      send_paced ~seed:d.d_seed req_w text;
      Unix.close req_w;
      read_to_eof resp_r buf;
      join ();
      Unix.close resp_r;
      let got = response_lines buf in
      List.length got = List.length expected
      && List.for_all2 same_response expected got
      || QCheck.Test.fail_reportf "jobs %d: expected\n%s\ngot\n%s" jobs
           (String.concat "\n" expected)
           (String.concat "\n" got))
    [ 1; 2 ]

(* [pieces] through a pipe, written by a helper domain with a short
   pause between pieces, read back with [Serve.Line_reader] *)
let reader_lines pieces =
  let r_fd, w_fd = Unix.pipe ~cloexec:true () in
  let writer =
    Domain.spawn (fun () ->
        List.iter
          (fun p ->
            write_all w_fd p;
            Unix.sleepf 0.001)
          pieces;
        Unix.close w_fd)
  in
  let ic = Unix.in_channel_of_descr r_fd in
  let r = Serve.Line_reader.create ic in
  let rec go acc =
    match Serve.Line_reader.read r with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  let lines = go [] in
  Domain.join writer;
  close_in ic;
  lines

(* the lines [input_line] reads from the same bytes *)
let input_lines text =
  let path = Filename.temp_file "serve_lines" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let lines =
    In_channel.with_open_bin path (fun ic ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  Sys.remove path;
  lines

let suite =
  [
    tc "response stream is byte-identical at jobs 1 and 2" (fun () ->
        let _, r1 = drive (cfg ~jobs:1 ()) mixed_session in
        let _, r2 = drive (cfg ~jobs:2 ()) mixed_session in
        let _, r4 = drive (cfg ~jobs:4 ~batch:3 ()) mixed_session in
        Alcotest.(check (list string)) "jobs 1 = jobs 2" r1 r2;
        (* a different batch size changes only sequencing internals,
           never a response's bytes, and emission order is pinned *)
        Alcotest.(check int) "same count" (List.length r1) (List.length r4));
    tc "responses arrive in request order with ids echoed" (fun () ->
        let lines =
          [
            "{\"cmd\":\"run\",\"id\":\"alpha\",\"src\":"
            ^ J.to_string (J.String (src_print 7))
            ^ "}";
            "bogus";
            "{\"cmd\":\"run\",\"id\":42,\"src\":"
            ^ J.to_string (J.String (src_print 8))
            ^ "}";
          ]
        in
        let _, rs = drive (cfg ~jobs:2 ()) lines in
        let ids =
          List.map (fun l -> J.to_string (get "id" (parse_response l))) rs
        in
        Alcotest.(check (list string))
          "ids in order"
          [ "\"alpha\""; "2"; "42" ]
          ids);
    tc "cache hits climb across repeated sources" (fun () ->
        let t = Serve.create ~config:(cfg ~jobs:1 ~batch:1 ()) () in
        let hit_counts =
          List.map
            (fun n ->
              ignore (Serve.handle_line t (req_run (src_print n)));
              Serve.cache_hits t)
            [ 1; 2; 1; 1; 2; 3; 1 ]
        in
        Alcotest.(check (list int))
          "hits after each request"
          [ 0; 0; 1; 2; 3; 3; 4 ]
          hit_counts;
        Alcotest.(check int) "three distinct sources" 3
          (Serve.cache_misses t);
        (* negative caching: a malformed source misses once, hits after *)
        let bad = "{\"cmd\":\"run\",\"src\":\"int main(void) { return }\"}" in
        ignore (Serve.handle_line t bad);
        let m1 = Serve.cache_misses t in
        ignore (Serve.handle_line t bad);
        Alcotest.(check int) "bad source cached too" m1
          (Serve.cache_misses t);
        Alcotest.(check int) "as a hit" 5 (Serve.cache_hits t));
    tc "fuel budget kills runaway requests" (fun () ->
        let _, rs =
          drive
            (cfg ~jobs:1 ())
            [ req_run ~opts:"{\"fuel\":100}" src_loop ]
        in
        let j = parse_response (List.hd rs) in
        Alcotest.(check (option string))
          "code" (Some "budget_exhausted") (error_code j);
        match J.member "serve.fuel_killed" (get "counters" j) with
        | Some (J.Int 1) -> ()
        | _ -> Alcotest.fail "expected serve.fuel_killed=1 in counters");
    tc "max-fuel caps a request's own budget" (fun () ->
        let _, rs =
          drive
            (cfg ~jobs:1 ~max_fuel:100 ())
            [ req_run ~opts:"{\"fuel\":999999999}" src_loop ]
        in
        Alcotest.(check (option string))
          "code" (Some "budget_exhausted")
          (error_code (parse_response (List.hd rs))));
    tc "max-time converts to fuel" (fun () ->
        (* 1e-4 s * 2e6 stmt/s = 200 statements: plenty for print_int,
           fatal for the infinite loop *)
        let config = cfg ~jobs:1 ~max_time:0.0001 () in
        let _, rs = drive config [ req_run (src_print 5); req_run src_loop ] in
        match List.map parse_response rs with
        | [ ok; killed ] ->
            Alcotest.(check (option string)) "small run fine" None
              (error_code ok);
            Alcotest.(check (option string))
              "loop killed" (Some "budget_exhausted") (error_code killed)
        | _ -> Alcotest.fail "expected two responses");
    tc "a time budget past max-fuel saturates at max-fuel" (fun () ->
        (* 1e300 s and infinity are worth more fuel than an int holds:
           the budget is max-fuel, enough for a 3-statement run and
           still fatal for the infinite loop *)
        List.iter
          (fun max_time ->
            let config = cfg ~jobs:1 ~max_fuel:100_000 ~max_time () in
            let _, rs =
              drive config [ req_run (src_print 5); req_run src_loop ]
            in
            match List.map parse_response rs with
            | [ ok; killed ] ->
                Alcotest.(check (option string))
                  (Printf.sprintf "small run fine at %g s" max_time)
                  None (error_code ok);
                Alcotest.(check (option string))
                  "loop killed" (Some "budget_exhausted") (error_code killed)
            | _ -> Alcotest.fail "expected two responses")
          [ 1e300; infinity; 0.05 ]);
    tc "malformed input yields typed errors, never a crash" (fun () ->
        let cases =
          [
            ("", None (* blank: ignored *));
            ("   ", None);
            ("{", Some "bad_json");
            ("[1,2,3]", Some "bad_request");
            ("\"just a string\"", Some "bad_request");
            ("{\"no_cmd\":true}", Some "bad_request");
            ("{\"cmd\":7}", Some "bad_request");
            ("{\"cmd\":\"levitate\"}", Some "unknown_cmd");
            ("{\"cmd\":\"run\"}", Some "bad_request");
            ("{\"cmd\":\"run\",\"src\":17}", Some "bad_request");
            ( "{\"cmd\":\"run\",\"src\":\"int main(void) { return }\"}",
              Some "parse_error" );
            ( "{\"cmd\":\"run\",\"src\":\"int main(void) { float a[4]; \
               a[0] = a + 1; return 0; }\"}",
              Some "type_error" );
            ("{\"cmd\":\"run\",\"bench\":\"nope\"}", Some "unknown_benchmark");
            ( "{\"cmd\":\"run\",\"src\":\"x\",\"bench\":\"y\"}",
              Some "bad_request" );
            ("{\"cmd\":\"run\",\"src\":\"x\",\"opts\":3}", Some "bad_request");
            ( "{\"cmd\":\"run\",\"src\":\"x\",\"opts\":{\"fuel\":\"lots\"}}",
              Some "bad_request" );
            ( "{\"cmd\":\"run\",\"src\":\"x\",\"opts\":{\"fuel\":0}}",
              Some "bad_request" );
            ( "{\"cmd\":\"simulate\",\"bench\":\"blackscholes\",\"opts\":{\"variant\":\"warp\"}}",
              Some "bad_request" );
            ("{\"cmd\":\"simulate\",\"src\":\"x\"}", Some "bad_request");
          ]
        in
        let t = Serve.create ~config:(cfg ~jobs:1 ~batch:1 ()) () in
        List.iter
          (fun (line, expected) ->
            let rs = Serve.handle_line t line in
            match expected with
            | None ->
                Alcotest.(check int)
                  (Printf.sprintf "%S ignored" line)
                  0 (List.length rs)
            | Some code ->
                (match rs with
                | [ r ] ->
                    Alcotest.(check (option string))
                      (Printf.sprintf "%S -> %s" line code)
                      (Some code)
                      (error_code (parse_response r))
                | _ ->
                    Alcotest.failf "%S: expected exactly one response" line))
          cases;
        (* and the server still works afterwards *)
        match Serve.handle_line t (req_run (src_print 9)) with
        | [ r ] ->
            let j = parse_response r in
            Alcotest.(check bool)
              "still serving" true
              (J.member "ok" j = Some (J.Bool true))
        | _ -> Alcotest.fail "server wedged after malformed input");
    tc "stats snapshots merge deterministically" (fun () ->
        let session =
          [
            req_run (src_print 1);
            req_run (src_print 1);
            "{\"cmd\":\"stats\"}";
            req_run (src_print 1);
            "{\"cmd\":\"stats\"}";
          ]
        in
        let inspect config =
          let _, rs = drive config session in
          List.filter_map
            (fun l ->
              let j = parse_response l in
              match J.member "cache" j with
              | Some c -> Some (get "hits" c, get "misses" c)
              | None -> None)
            rs
        in
        let s1 = inspect (cfg ~jobs:1 ()) in
        let s2 = inspect (cfg ~jobs:2 ()) in
        Alcotest.(check bool) "same snapshots" true (s1 = s2);
        match s1 with
        | [ (J.Int h1, J.Int m1); (J.Int h2, J.Int m2) ] ->
            Alcotest.(check int) "one miss total" 1 m1;
            Alcotest.(check int) "misses stable" 1 m2;
            Alcotest.(check bool) "hits strictly climb" true (h2 > h1)
        | _ -> Alcotest.fail "expected two stats snapshots with int fields");
    tc "check requests run the differential oracle" (fun () ->
        let src =
          {|int main(void) {
              float a[8];
              float b[8];
              for (i = 0; i < 8; i++) { a[i] = (float)i; }
              #pragma omp parallel for
              for (i = 0; i < 8; i++) { b[i] = a[i] + 1.0; }
              print_float(b[3]);
              return 0;
            }|}
        in
        let _, rs =
          drive
            (cfg ~jobs:1 ())
            [
              Printf.sprintf "{\"cmd\":\"check\",\"src\":%s}"
                (J.to_string (J.String src));
            ]
        in
        let j = parse_response (List.hd rs) in
        Alcotest.(check bool)
          "ok" true
          (J.member "ok" j = Some (J.Bool true));
        Alcotest.(check bool)
          "oracle passed" true
          (J.member "pass" j = Some (J.Bool true));
        match get "reports" j with
        | J.List (_ :: _) -> ()
        | _ -> Alcotest.fail "expected non-empty reports");
    tc "shutdown stops the server and reports served count" (fun () ->
        let t = Serve.create ~config:(cfg ~jobs:1 ()) () in
        ignore (Serve.handle_line t (req_run (src_print 1)));
        Alcotest.(check bool) "running" false (Serve.shutdown_requested t);
        let rs = Serve.handle_line t "{\"cmd\":\"shutdown\"}" in
        Alcotest.(check bool) "stopped" true (Serve.shutdown_requested t);
        (* the shutdown barrier flushed the pending run first *)
        Alcotest.(check int) "both responses out" 2 (List.length rs));
    tc "the daemon sink keeps totals, not spans" (fun () ->
        let reqs = simulate_requests 200 in
        let lines =
          List.map
            (fun ((w : Workloads.Workload.t), (v, _)) ->
              Printf.sprintf
                {|{"cmd":"simulate","bench":%s,"opts":{"variant":"%s"}}|}
                (J.to_string (J.String w.Workloads.Workload.name))
                v)
            reqs
          @ [ "{\"cmd\":\"stats\"}" ]
        in
        let run jobs =
          let t, rs = drive (cfg ~jobs ~batch:8 ()) lines in
          Alcotest.(check int)
            (Printf.sprintf "no spans held at jobs %d" jobs)
            0
            (Obs.span_count (Serve.obs t));
          (Serve.obs t, List.nth rs 200)
        in
        let sink, stats = run 1 in
        Alcotest.(check string)
          "same stats at jobs 1 and 2" stats
          (snd (run 2));
        Alcotest.(check string)
          "stats reports the sink's kinds"
          (J.to_string (get "kinds" (Obs.to_json sink)))
          (J.to_string (get "kinds" (get "obs" (parse_response stats))));
        (* reference: the per-request sinks merged, spans kept *)
        let reference = Obs.create () in
        List.iter
          (fun (w, (_, v)) ->
            let o = Obs.create () in
            ignore (Comp.simulate ~obs:o w v);
            Obs.merge reference o)
          reqs;
        Alcotest.(check bool)
          "the reference holds spans" true
          (Obs.span_count reference > 0);
        let expected = Obs.by_kind reference and got = Obs.by_kind sink in
        Alcotest.(check (list string))
          "same kinds"
          (List.map (fun (k, _) -> Obs.kind_name k) expected)
          (List.map (fun (k, _) -> Obs.kind_name k) got);
        (* counts are exact; byte and second totals are float sums the
           two sinks associate differently (per request, then across
           requests), so they agree to the last few bits *)
        List.iter2
          (fun (k, (e : Obs.kind_stat)) (_, (g : Obs.kind_stat)) ->
            let name = Obs.kind_name k in
            Alcotest.(check int)
              (name ^ " count") e.Obs.ks_count g.Obs.ks_count;
            List.iter
              (fun (what, e, g) ->
                if not (float_close ~eps:1e-12 e g) then
                  Alcotest.failf "%s %s: %.17g vs %.17g" name what e g)
              [
                ("bytes", e.Obs.ks_bytes, g.Obs.ks_bytes);
                ("seconds", e.Obs.ks_seconds, g.Obs.ks_seconds);
              ])
          expected got);
    prop "any request stream: one typed response per line, in order, at \
          any width"
      ~count:60 arb_stream stream_ok;
    tc "a request is answered while its pipe stays open" (fun () ->
        let line = req_run (src_print 6) in
        let req_w, resp_r, join = serve_on_pipes (cfg ~jobs:1 ()) in
        write_all req_w (line ^ "\n");
        let buf = Buffer.create 256 in
        let deadline = Unix.gettimeofday () +. 10. in
        let rec wait () =
          String.contains (Buffer.contents buf) '\n'
          ||
          let left = deadline -. Unix.gettimeofday () in
          left > 0.
          && read_some ~timeout:(Float.min left 0.1) resp_r buf
          && wait ()
        in
        let answered = wait () in
        Unix.close req_w;
        read_to_eof resp_r buf;
        join ();
        Unix.close resp_r;
        Alcotest.(check bool) "answered before end of input" true answered;
        Alcotest.(check (list string))
          "the response" (snd (drive (cfg ~jobs:1 ()) [ line ]))
          (response_lines buf));
    prop "paced pipe input: the drive reference, up to batch shape"
      ~count:40 arb_delivery paced_ok;
    tc "the line reader splits as input_line does" (fun () ->
        List.iter
          (fun (what, pieces) ->
            Alcotest.(check (list string))
              what
              (input_lines (String.concat "" pieces))
              (reader_lines pieces))
          [
            ("no input", []);
            ("a final line without a newline", [ "first\nlast" ]);
            ("CRLF keeps its CR", [ "a\r\nb\r\n\r" ]);
            ("blank lines", [ "\n\n x \n" ]);
            ( "a line longer than 64 KB",
              [ String.make 70_000 'x' ^ "\nshort\n" ^ String.make 65_536 'y' ] );
            ( "a line split across two writes",
              [ "{\"cmd\":\"st"; "ats\"}\nnext\n" ] );
            ("a CRLF split between writes", [ "a\r"; "\nb" ]);
          ]);
    tc "the line reader pauses only when its pipe is empty" (fun () ->
        let r_fd, w_fd = Unix.pipe ~cloexec:true () in
        let ic = Unix.in_channel_of_descr r_fd in
        let r = Serve.Line_reader.create ic in
        let paused what expected =
          Alcotest.(check bool) what expected (Serve.Line_reader.paused r)
        in
        let read what expected =
          Alcotest.(check (option string)) what expected
            (Serve.Line_reader.read r)
        in
        paused "empty and open" true;
        write_all w_fd "a\nb\nc";
        paused "bytes waiting" false;
        read "first" (Some "a");
        paused "a line buffered" false;
        read "second" (Some "b");
        paused "only a partial line left" true;
        write_all w_fd "d\n";
        paused "the rest arrived" false;
        read "joined" (Some "cd");
        Unix.close w_fd;
        paused "end of input is readable" false;
        read "end" None;
        close_in ic;
        (* a regular file is always readable: file input never pauses *)
        let path = Filename.temp_file "serve_lines" ".txt" in
        Out_channel.with_open_bin path (fun oc -> output_string oc "x\n");
        In_channel.with_open_bin path (fun ic ->
            let r = Serve.Line_reader.create ic in
            Alcotest.(check bool) "file" false (Serve.Line_reader.paused r);
            ignore (Serve.Line_reader.read r);
            Alcotest.(check bool) "file read out" false
              (Serve.Line_reader.paused r));
        Sys.remove path);
  ]
