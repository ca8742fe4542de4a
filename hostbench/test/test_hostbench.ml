(* Tests of the benchmark's own helpers: the percentile guard, self time
   from nested spans, open-loop latency from the due time, CPU and
   peak-RSS sampling, and the metric catalogue against BENCHMARK.json. *)

open Hostbench

let close = Alcotest.float 1e-9
let check_float msg want got = Alcotest.check close msg want got
let ints n = List.init n (fun i -> float_of_int (i + 1))

(* ---- Pct ---- *)

let pct_tests =
  [
    Alcotest.test_case "p90 needs 100 samples, p99 1000, p50 20" `Quick (fun () ->
        Alcotest.(check int) "p90" 100 (Pct.min_samples ~p:0.9);
        Alcotest.(check int) "p99" 1000 (Pct.min_samples ~p:0.99);
        Alcotest.(check int) "p50" 20 (Pct.min_samples ~p:0.5);
        Alcotest.(check int) "beyond p90 of 100" 10 (Pct.beyond ~p:0.9 100);
        Alcotest.(check bool) "99 samples refused" false (Pct.enough ~p:0.9 99));
    Alcotest.test_case "get returns the nearest rank" `Quick (fun () ->
        check_float "p90 of 1..100" 90. (Pct.get ~p:0.9 (List.rev (ints 100)));
        check_float "p50 of 1..100" 50. (Pct.get ~p:0.5 (ints 100)));
    Alcotest.test_case "get refuses too few samples" `Quick (fun () ->
        match Pct.get ~p:0.9 (ints 99) with
        | _ -> Alcotest.fail "p90 of 99 samples was accepted"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "capped falls back to 10 beyond" `Quick (fun () ->
        let v, p = Pct.capped ~p:0.9 (ints 50) in
        check_float "value" 40. v;
        check_float "effective p" 0.8 p;
        let v, p = Pct.capped ~p:0.9 (ints 200) in
        check_float "enough: value" 180. v;
        check_float "enough: p" 0.9 p);
    Alcotest.test_case "median of a small set" `Quick (fun () ->
        check_float "odd" 2. (Pct.median [ 3.; 1.; 2. ]);
        check_float "even, lower middle" 2. (Pct.median [ 4.; 1.; 3.; 2. ]));
  ]

(* ---- Spans ---- *)

let fake_clock times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
        q := rest;
        t
    | [] -> Alcotest.fail "clock read too often"

let span_tests =
  [
    Alcotest.test_case "self time subtracts direct children" `Quick (fun () ->
        (* op [0,10] holds a [1,4] and c [5,9]; a holds b [2,3] *)
        let clock = fake_clock [ 0.; 1.; 2.; 3.; 4.; 5.; 9.; 10. ] in
        let t = Spans.create ~clock ~enabled:true () in
        Spans.set_op t 7;
        Spans.record t "bench.op" (fun () ->
            Spans.record t "session.a" (fun () -> Spans.record t "session.b" ignore);
            Spans.record t "snapshot.c" ignore);
        let spans = Spans.spans t in
        let self name =
          snd (List.find (fun (s, _) -> s.Spans.name = name) (Spans.self_times spans))
        in
        check_float "op" 3. (self "bench.op");
        check_float "a" 2. (self "session.a");
        check_float "b" 1. (self "session.b");
        check_float "c" 4. (self "snapshot.c");
        let by = Spans.self_by_layer spans in
        check_float "session layer" 3. (List.assoc "session" by);
        check_float "bench layer" 3. (List.assoc "bench" by);
        check_float "layers sum to the op" 10. (List.fold_left (fun a (_, v) -> a +. v) 0. by);
        Alcotest.(check bool) "op id carried" true (List.for_all (fun s -> s.Spans.op = 7) spans));
    Alcotest.test_case "ops filter and a raising call still closes" `Quick (fun () ->
        let clock = fake_clock [ 0.; 1.; 2.; 4. ] in
        let t = Spans.create ~clock ~enabled:true () in
        (try Spans.record t "leak.x" (fun () -> failwith "boom") with Failure _ -> ());
        Spans.set_op t 1;
        Spans.record t "leak.y" ignore;
        let by = Spans.self_by_layer ~ops:(fun op -> op >= 0) (Spans.spans t) in
        check_float "only op 1" 2. (List.assoc "leak" by));
    Alcotest.test_case "disabled recorder records nothing" `Quick (fun () ->
        let t = Spans.create ~clock:(fun () -> Alcotest.fail "clock read") ~enabled:false () in
        Alcotest.(check int) "result" 3 (Spans.record t "x.y" (fun () -> 3));
        Alcotest.(check int) "spans" 0 (List.length (Spans.spans t)));
  ]

(* ---- Openloop ---- *)

let openloop_tests =
  [
    Alcotest.test_case "latency runs from the due time" `Quick (fun () ->
        let ol = Openloop.create ~t0:100. ~interarrival:1. 3 in
        check_float "due 2" 102. (Openloop.due ol 2);
        Openloop.mark_sent ol 0 ~at:100.;
        Openloop.mark_done ol 0 ~at:100.5;
        (* a stall: request 1 goes out 0.7 s late and is answered 0.3 s
           after it was sent; its latency is the full 1.0 s *)
        Openloop.mark_sent ol 1 ~at:101.7;
        Openloop.mark_sent ol 2 ~at:102.;
        Openloop.mark_done ol 1 ~at:102.;
        Alcotest.(check (list close)) "latencies" [ 0.5; 1.0 ] (Openloop.latencies ol);
        Alcotest.(check (list close)) "lateness" [ 0.; 0.7; 0. ] (Openloop.lateness ol);
        Alcotest.(check int) "completed" 2 (Openloop.completed ol);
        Alcotest.(check int) "max in flight" 2 (Openloop.max_in_flight ol);
        check_float "wall to the last response" 2. (Openloop.wall ol));
  ]

(* ---- Procstat ---- *)

let procstat_tests =
  [
    Alcotest.test_case "stat parser counts fields after the last paren" `Quick (fun () ->
        let line =
          "4242 (my (odd) proc) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 1 \
           0 12345 1000000 200 18446744073709551615"
        in
        check_float "utime+stime" 3.25 (Procstat.parse_stat_cpu line));
    Alcotest.test_case "status parser reads VmHWM" `Quick (fun () ->
        let text = "Name:\tx\nVmPeak:\t  99999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n" in
        check_float "MB" 2. (Procstat.parse_status_hwm text));
    Alcotest.test_case "live sampling sees CPU burnt and memory touched" `Quick (fun () ->
        let pid = Unix.getpid () in
        let cpu0 = Procstat.cpu_s pid and self0 = Procstat.self_cpu_s () in
        (* burn 0.2 s of this process's CPU, however long that takes on
           a loaded machine; /proc counts it in 10 ms ticks *)
        let x = ref 0 in
        while Procstat.self_cpu_s () -. self0 < 0.2 do
          incr x
        done;
        Alcotest.(check bool) "proc cpu" true (Procstat.cpu_s pid -. cpu0 >= 0.15);
        let rss0 = Procstat.peak_rss_mb pid in
        let b = Bytes.make (48 * 1024 * 1024) 'x' in
        Alcotest.(check bool) "peak rss" true (Procstat.peak_rss_mb pid -. rss0 >= 40.);
        ignore (Sys.opaque_identity b));
  ]

(* ---- the catalogue matches BENCHMARK.json ---- *)

let benchmark_json () =
  match Shift.Results.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let listed key =
  match Shift.Results.member key (benchmark_json ()) with
  | Some (Shift.Results.List l) ->
      List.map
        (fun m ->
          match (Shift.Results.member "name" m, Shift.Results.member "unit" m) with
          | Some (Shift.Results.String n), Some (Shift.Results.String u) -> (n, u)
          | _ -> Alcotest.fail "metric without name or unit")
        l
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let catalogue_tests =
  let pair = Alcotest.(list (pair string string)) in
  [
    Alcotest.test_case "end-to-end metrics match BENCHMARK.json" `Quick (fun () ->
        Alcotest.check pair "end_to_end" Metrics.end_to_end (listed "end_to_end"));
    Alcotest.test_case "per-layer metrics match BENCHMARK.json" `Quick (fun () ->
        Alcotest.check pair "per_layer" Metrics.per_layer (listed "per_layer"));
    Alcotest.test_case "set refuses an unknown name" `Quick (fun () ->
        let t = Metrics.table Metrics.end_to_end in
        match Metrics.set t "latency" 1. with
        | () -> Alcotest.fail "accepted"
        | exception Invalid_argument _ -> ());
  ]

let () =
  Alcotest.run "hostbench"
    [
      ("pct", pct_tests);
      ("spans", span_tests);
      ("openloop", openloop_tests);
      ("procstat", procstat_tests);
      ("catalogue", catalogue_tests);
    ]
