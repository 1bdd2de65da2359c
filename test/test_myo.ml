open Helpers
open Runtime

let cfg = Machine.Config.paper_default
let myo_cfg = cfg.Machine.Config.myo

let suite =
  [
    (* MYO model *)
    tc "allocation within limits succeeds" (fun () ->
        let t = Myo.create myo_cfg in
        match Myo.alloc t 4096 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "unexpected: %a" Myo.pp_error e);
    tc "allocation count limit enforced (the ferret failure)" (fun () ->
        let t = Myo.create myo_cfg in
        let rec go i =
          if i > myo_cfg.Machine.Config.max_allocs + 1 then
            Alcotest.fail "limit never hit"
          else
            match Myo.alloc t 16 with
            | Ok _ -> go (i + 1)
            | Error (Myo.Too_many_allocs _) ->
                Alcotest.(check int)
                  "fails at limit + 1"
                  (myo_cfg.Machine.Config.max_allocs + 1)
                  i
            | Error e -> Alcotest.failf "wrong error: %a" Myo.pp_error e
        in
        go 1);
    tc "total size limit enforced" (fun () ->
        let t = Myo.create myo_cfg in
        let huge = myo_cfg.Machine.Config.max_total_bytes in
        (match Myo.alloc t huge with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "first should fit: %a" Myo.pp_error e);
        match Myo.alloc t 1 with
        | Error (Myo.Too_much_memory _) -> ()
        | Error e -> Alcotest.failf "wrong error: %a" Myo.pp_error e
        | Ok _ -> Alcotest.fail "expected memory limit");
    tc "page faults counted once per page" (fun () ->
        let t = Myo.create myo_cfg in
        let addr = Result.get_ok (Myo.alloc t (10 * 4096)) in
        let fresh = Myo.touch t ~addr ~len:4096 in
        Alcotest.(check int) "first touch faults" 1 fresh;
        let again = Myo.touch t ~addr ~len:4096 in
        Alcotest.(check int) "already resident" 0 again;
        let spanning = Myo.touch t ~addr:(addr + 4000) ~len:200 in
        Alcotest.(check int) "next page faults" 1 spanning;
        Alcotest.(check int) "total" 2 (Myo.stats t).faults);
    tc "sync boundary invalidates device pages" (fun () ->
        let t = Myo.create myo_cfg in
        let addr = Result.get_ok (Myo.alloc t 4096) in
        ignore (Myo.touch t ~addr ~len:4096);
        Myo.sync_boundary t;
        Alcotest.(check int)
          "re-faults after sync" 1
          (Myo.touch t ~addr ~len:4096));
    tc "fault time linear in faults" (fun () ->
        let t = Myo.create myo_cfg in
        let addr = Result.get_ok (Myo.alloc t (100 * 4096)) in
        ignore (Myo.touch t ~addr ~len:(100 * 4096));
        let per_page =
          myo_cfg.Machine.Config.fault_cost_s
          +. (4096. /. (myo_cfg.Machine.Config.page_bw_gbs *. 1e9))
        in
        Alcotest.(check (float 1e-9))
          "100 pages" (100. *. per_page) (Myo.fault_time cfg t));
    tc "segbuf bulk transfer is much faster than faulting" (fun () ->
        let bytes = 100 * 1024 * 1024 in
        let t = Myo.create myo_cfg in
        let addr = Result.get_ok (Myo.alloc t bytes) in
        ignore (Myo.touch t ~addr ~len:bytes);
        let t_myo = Myo.fault_time cfg t in
        let t_seg = Myo.segbuf_time cfg ~bytes ~seg_bytes:(256 lsl 20) in
        Alcotest.(check bool)
          (Printf.sprintf "segbuf %.4f << myo %.4f" t_seg t_myo)
          true
          (t_seg < t_myo /. 5.));
    prop "touch never double-counts" ~count:100
      QCheck.(small_list (pair (int_range 0 100_000) (int_range 1 10_000)))
      (fun touches ->
        let t = Myo.create myo_cfg in
        let addr0 = Result.get_ok (Myo.alloc t 200_000) in
        List.iter
          (fun (ofs, len) ->
            let len = min len (200_000 - ofs) in
            if len > 0 then ignore (Myo.touch t ~addr:(addr0 + ofs) ~len))
          touches;
        let max_pages = (200_000 / 4096) + 2 in
        (Myo.stats t).Myo.faults <= max_pages);
  ]
