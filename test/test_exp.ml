(* Shape tests for the experiment harness: tiny-scale versions of every
   figure must reproduce the paper's qualitative claims, judged by the
   same [check] rules bench-check applies to the BENCH artifacts. The
   rules themselves are tested on hand-built data blocks below. *)

let tiny_scale = 1
let tiny_txns = 800

let cfg () = Config.scaled ~factor:0.1 Config.default

let test_fig4_shape () =
  let f =
    Fig4.run ~config:(cfg ()) ~tps_scale:tiny_scale ~txns:tiny_txns ~seeds:[ 1 ] ()
  in
  Alcotest.(check (list string)) "Figure 4 rules" [] (Fig4.check (Fig4.to_json f))

let test_fig4_deterministic_per_seed () =
  let one () =
    Fig4.run ~config:(cfg ()) ~tps_scale:tiny_scale ~txns:300 ~seeds:[ 7 ] ()
  in
  let a = one () and b = one () in
  List.iter2
    (fun x y ->
      Alcotest.(check (float 1e-9)) "same seed, same TPS" x.Fig4.tps_mean
        y.Fig4.tps_mean)
    a.Fig4.bars b.Fig4.bars

let test_fig5_shape () =
  let f = Fig5.run ~config:(cfg ()) ~tps_scale:tiny_scale () in
  Alcotest.(check int) "three benchmarks" 3 (List.length f.Fig5.rows);
  Alcotest.(check (list string)) "Figure 5 rules" [] (Fig5.check (Fig5.to_json f))

let test_fig6_shape () =
  let f = Fig6.run ~config:(cfg ()) ~tps_scale:tiny_scale ~txns:tiny_txns () in
  Alcotest.(check (list string)) "Figure 6 rules" [] (Fig6.check (Fig6.to_json f))

let test_fig7_crossover_math () =
  (* Synthetic inputs with a known crossover. *)
  let fig4 =
    {
      Fig4.bars =
        [
          {
            Fig4.setup = Txstack.Ffs_user;
            tps_mean = 10.0;
            tps_sd = 0.0;
            per_seed = [ 10.0 ];
            cleaner_stall_mean_s = 0.0;
            paper_tps = None;
            runs = [];
          };
          {
            Fig4.setup = Txstack.Lfs_user;
            tps_mean = 12.5;
            tps_sd = 0.0;
            per_seed = [ 12.5 ];
            cleaner_stall_mean_s = 0.0;
            paper_tps = None;
            runs = [];
          };
        ];
      scale = Tpcb.scale_for_tps 1;
      txns = 0;
      config = Config.default;
    }
  in
  let side name tps scan_s =
    { Fig6.fs_name = name; tps; scan_s; contiguity = None; stats = Stats.create () }
  in
  let fig6 =
    {
      Fig6.readopt = side "ffs" 10.0 100.0;
      lfs = side "lfs" 12.5 200.0;
      txns = 0;
      config = Config.default;
    }
  in
  let f = Fig7.of_measurements ~fig4 ~fig6 in
  (* 1/10 - 1/12.5 = 0.02 s/txn slope difference; 100 s scan difference
     -> 5000 transactions. *)
  (match f.Fig7.crossover_txns with
  | Some c -> Alcotest.(check (float 0.5)) "crossover" 5000.0 c
  | None -> Alcotest.fail "expected a crossover");
  (* At the crossover both totals are equal. *)
  List.iter
    (fun (n, ro, lfs) ->
      if n = 5000 then Alcotest.(check (float 0.5)) "equal at crossover" ro lfs)
    f.Fig7.series;
  (* The artifact's own writer produces what its check reads. *)
  Alcotest.(check (list string)) "Figure 7 rules" []
    (Fig7.check (Fig7.artifact_json ~fig4 ~fig6 f))

let test_fig7_no_crossover () =
  let side tps scan =
    {
      Fig6.fs_name = "";
      tps;
      scan_s = scan;
      contiguity = None;
      stats = Stats.create ();
    }
  in
  let bar setup tps =
    {
      Fig4.setup;
      tps_mean = tps;
      tps_sd = 0.0;
      per_seed = [ tps ];
      cleaner_stall_mean_s = 0.0;
      paper_tps = None;
      runs = [];
    }
  in
  (* LFS faster at everything: no crossover. *)
  let fig4 =
    {
      Fig4.bars = [ bar Txstack.Ffs_user 10.0; bar Txstack.Lfs_user 12.0 ];
      scale = Tpcb.scale_for_tps 1;
      txns = 0;
      config = Config.default;
    }
  in
  let fig6 =
    {
      Fig6.readopt = side 10.0 200.0;
      lfs = side 12.0 100.0;
      txns = 0;
      config = Config.default;
    }
  in
  let f = Fig7.of_measurements ~fig4 ~fig6 in
  Alcotest.(check bool) "no crossover" true (f.Fig7.crossover_txns = None);
  Alcotest.(check (list string)) "Figure 7 rules"
    [ "fig7: no crossover (one system dominates both workloads)" ]
    (Fig7.check (Fig7.artifact_json ~fig4 ~fig6 f))

let test_coalescing_ablation_shape () =
  let r = Ablation.coalescing ~config:(cfg ()) ~tps_scale:tiny_scale ~txns:tiny_txns () in
  Alcotest.(check bool) "fragmented before" true
    (r.Ablation.contiguity_before < r.Ablation.contiguity_after);
  Alcotest.(check bool)
    (Printf.sprintf "scan improves (%.1fs -> %.1fs)" r.Ablation.scan_before_s
       r.Ablation.scan_after_s)
    true
    (r.Ablation.scan_after_s < r.Ablation.scan_before_s)

let test_tas_ablation_shape () =
  let t = Ablation.test_and_set ~config:(cfg ()) ~tps_scale:tiny_scale ~txns:tiny_txns () in
  match t.Ablation.rows with
  | [ semaphores; tas; _kernel ] ->
    Alcotest.(check bool)
      (Printf.sprintf "test-and-set speeds up user level (%.2f -> %.2f)"
         semaphores.Ablation.tps tas.Ablation.tps)
      true
      (tas.Ablation.tps > semaphores.Ablation.tps)
  | _ -> Alcotest.fail "expected three rows"

let test_cleanersweep_shape () =
  let arms =
    [
      { Cleanersweep.policy = `Greedy; segregate = false };
      { Cleanersweep.policy = `Cost_benefit; segregate = true };
    ]
  in
  let data =
    Cleanersweep.run ~tps_scale:tiny_scale ~txns:120 ~seed:1 ~utils:[ 50; 80 ]
      ~mpls:[ 1; 2 ] ~arms ()
  in
  let points = Expcommon.points data in
  let num = Expcommon.num in
  Alcotest.(check int) "full grid" (2 * 2 * 2) (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "positive TPS at util %g mpl %g" (num "util_pct" p)
           (num "mpl" p))
        true
        (num "tps" p > 0.0);
      Alcotest.(check bool) "write cost non-negative" true
        (num "write_cost" p >= 0.0))
    points;
  (* Per-point fields and segments_cleaned = cleans_observed: every
     cleaned segment (copying or dead-reclaim) observes exactly one
     sample in the clean-latency histogram. *)
  Alcotest.(check (list string)) "cleanersweep rules" [] (Cleanersweep.check data);
  (* The fuller disk must actually exercise the cleaner somewhere. *)
  Alcotest.(check bool) "cleaner ran at 80% utilization" true
    (List.exists
       (fun p -> num "util_pct" p = 80.0 && num "segments_cleaned" p > 0.0)
       points)

(* One cheap arm of each other sweep, through the path the CLI takes:
   [run] builds the data block once, [print] reports it and [check]
   holds it to the artifact rules its points reach. *)
let test_sweep name ~print ~check run () =
  let data = run () in
  print data;
  Alcotest.(check (list string)) (name ^ " rules") [] (check data);
  match Expcommon.points data with
  | [] -> Alcotest.fail (name ^ ": no points")
  | points ->
    List.iter
      (fun p ->
        Alcotest.(check bool) (name ^ ": positive TPS") true
          (Expcommon.num "tps" p > 0.0))
      points

let test_mplsweep =
  test_sweep "mplsweep" ~print:Mplsweep.print ~check:Mplsweep.check (fun () ->
      Mplsweep.run ~tps_scale:tiny_scale ~txns:40 ~mpls:[ 2 ]
        ~groups:[ (2, 0.05) ] ~grains:[ `Record ] ())

let test_disksweep =
  test_sweep "disksweep" ~print:Disksweep.print ~check:Disksweep.check (fun () ->
      Disksweep.run ~tps_scale:tiny_scale ~txns:40 ~mpls:[ 1 ] ())

let test_logsweep =
  test_sweep "logsweep" ~print:Logsweep.print ~check:Logsweep.check (fun () ->
      Logsweep.run ~tps_scale:tiny_scale ~txns:40 ~streams:[ 2 ] ~mpls:[ 4 ] ())

let test_logsweep_rejects_kernel () =
  match Logsweep.run ~txns:1 ~setup:Txstack.Lfs_kernel () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "logsweep ran on lfs-kernel, which has no WAL"

(* Artifact rules ------------------------------------------------------------- *)

(* Each rule gets a minimal hand-built data block that passes every rule
   of its experiment, and a one-field edit of that block that must fail
   with exactly that rule's message. *)

let i n = Json.Int n
let f x = Json.Float x
let s x = Json.Str x
let obj kvs = Json.Obj kvs

(* [update path v j]: [j] with the field at [path] (object keys and list
   indices, ending in a key) set to [v], or deleted when [v] is [None]. *)
let rec update path v j =
  match (path, j) with
  | [ `K k ], Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k', x) -> if k' = k then Option.map (fun v -> (k, v)) v else Some (k', x))
         kvs)
  | `K k :: rest, Json.Obj kvs ->
    Json.Obj (List.map (fun (k', x) -> (k', if k' = k then update rest v x else x)) kvs)
  | `I n :: rest, Json.List l ->
    Json.List (List.mapi (fun n' x -> if n' = n then update rest v x else x) l)
  | _ -> invalid_arg "update: path does not match"

let set path v = update path (Some v)
let del path = update path None

let sweep points = obj [ ("points", Json.List points) ]

let mplsweep_data =
  let point ~mpl ~grain ~tps ~batch =
    obj
      [
        ("mpl", i mpl);
        ("group_size", i 8);
        ("group_timeout_s", f 0.05);
        ("lock_grain", s grain);
        ("tps", f tps);
        ("mean_commit_batch", f batch);
        ("group_flushes", i 10);
        ("lock_wait_p99_s", f 0.1);
      ]
  in
  sweep
    [
      point ~mpl:1 ~grain:"page" ~tps:10.0 ~batch:1.0;
      point ~mpl:8 ~grain:"page" ~tps:20.0 ~batch:3.0;
      point ~mpl:16 ~grain:"page" ~tps:15.0 ~batch:1.0;
      point ~mpl:16 ~grain:"record" ~tps:30.0 ~batch:1.0;
    ]

let disksweep_data =
  let point ~label ~ndisks ~log_disk ~tps busy =
    let disk k b =
      obj
        [
          ("disk", s (if ndisks = 1 then "disk" else Printf.sprintf "disk%d" k));
          ("busy_s", f b);
        ]
    in
    obj
      [
        ("label", s label);
        ("ndisks", i ndisks);
        ("log_disk", Json.Bool log_disk);
        ("mpl", i 8);
        ("tps", f tps);
        ( "disks",
          Json.List
            (List.mapi disk busy
            (* A busy log spindle is not part of the stripe. *)
            @ if log_disk then [ obj [ ("disk", s "disklog"); ("busy_s", f 100.0) ] ]
              else []) );
      ]
  in
  sweep
    [
      point ~label:"1-shared" ~ndisks:1 ~log_disk:false ~tps:10.0 [ 40.0 ];
      point ~label:"1+log" ~ndisks:1 ~log_disk:true ~tps:12.0 [ 35.0 ];
      point ~label:"4+log" ~ndisks:4 ~log_disk:true ~tps:14.0
        [ 10.0; 11.0; 12.0; 13.0 ];
    ]

let logsweep_data =
  let point ~streams ~tps =
    obj
      [
        ("streams", i streams);
        ("mpl", i 16);
        ("tps", f tps);
        ("mean_commit_batch", f 2.0);
        ("dep_checks", i 5);
        ("dep_forces", i 1);
        ( "force_p99",
          Json.List
            (List.init streams (fun k ->
                 obj [ ("stream", s (Printf.sprintf "s%d" k)); ("p99_s", f 0.1) ])) );
      ]
  in
  sweep [ point ~streams:1 ~tps:10.0; point ~streams:4 ~tps:12.0 ]

let cleanersweep_data =
  let point ~policy ~segregate ~util ~tps =
    obj
      [
        ("util_pct", i util);
        ("mpl", i 8);
        ("policy", s policy);
        ("segregate", Json.Bool segregate);
        ("arm", s (policy ^ if segregate then "+seg" else ""));
        ("tps", f tps);
        ("stall_p99_s", f 0.0);
        ("write_cost", f 0.2);
        ("segments_cleaned", i 3);
        ("cleans_observed", i 3);
      ]
  in
  sweep
    [
      point ~policy:"greedy" ~segregate:false ~util:50 ~tps:10.0;
      point ~policy:"greedy" ~segregate:false ~util:90 ~tps:7.0;
      point ~policy:"cost-benefit" ~segregate:true ~util:50 ~tps:10.0;
      point ~policy:"cost-benefit" ~segregate:true ~util:90 ~tps:8.0;
    ]

let fig4_data =
  obj
    [
      ( "bars",
        Json.List
          (List.map
             (fun (setup, tps) -> obj [ ("setup", s setup); ("tps_mean", f tps) ])
             [ ("ffs-user", 7.28); ("lfs-user", 8.83); ("lfs-kernel", 9.61) ]) );
    ]

let fig5_data =
  obj
    [
      ( "rows",
        Json.List
          (List.map
             (fun b -> obj [ ("benchmark", s b); ("delta_pct", f 0.01) ])
             [ "ANDREW"; "BIGFILE"; "USER-TP" ]) );
    ]

let fig6_data =
  obj
    [
      ("readopt", obj [ ("scan_s", f 100.0); ("contiguity", f 0.99) ]);
      ("lfs", obj [ ("scan_s", f 150.0); ("contiguity", Json.Null) ]);
    ]

let fig7_data = obj [ ("fig7", obj [ ("crossover_txns", f 3970.0) ]) ]

(* A complete artifact with no experiment rules of its own: only the
   envelope applies. *)
let envelope_doc =
  obj
    [
      ("meta", obj [ ("name", s "example"); ("config", obj [ ("a", i 1) ]) ]);
      ("data", obj []);
      ( "stats",
        obj
          [
            ("counters", obj [ ("c", i 1) ]);
            ( "histograms",
              obj
                [
                  ( "h",
                    obj
                      (List.map
                         (fun k -> (k, i 1))
                         [ "count"; "p50"; "p95"; "p99"; "max"; "buckets" ]) );
                ] );
          ] );
    ]

let rules =
  let points = `K "points" in
  [
    ( "mplsweep: batching",
      Mplsweep.check,
      mplsweep_data,
      set [ points; `I 1; `K "mean_commit_batch" ] (f 1.0),
      "mplsweep: no point achieved a mean commit batch > 1 despite MPL > 1 \
       and group size > 1" );
    ( "mplsweep: MPL 8 beats MPL 1",
      Mplsweep.check,
      mplsweep_data,
      set [ points; `I 1; `K "tps" ] (f 10.0),
      "mplsweep: TPS at MPL 8 (10.00) not above MPL 1 (10.00) for group size 8" );
    ( "mplsweep: record beats page at MPL 16",
      Mplsweep.check,
      mplsweep_data,
      set [ points; `I 3; `K "tps" ] (f 15.0),
      "mplsweep: record-grain TPS at MPL 16 (15.00) not above page grain \
       (15.00) for group size 8" );
    ( "mplsweep: point fields",
      Mplsweep.check,
      mplsweep_data,
      del [ points; `I 0; `K "group_flushes" ],
      "mplsweep point missing field group_flushes" );
    ( "mplsweep: points present",
      Mplsweep.check,
      mplsweep_data,
      set [ points ] (Json.List []),
      "mplsweep: data.points missing or empty" );
    ( "disksweep: 1+log beats shared",
      Disksweep.check,
      disksweep_data,
      set [ points; `I 1; `K "tps" ] (f 10.0),
      "disksweep: TPS(1+log) (10.00) not above TPS(1 shared) (10.00) at MPL 8" );
    ( "disksweep: 4+log beats shared",
      Disksweep.check,
      disksweep_data,
      set [ points; `I 2; `K "tps" ] (f 9.0),
      "disksweep: TPS(4+log) (9.00) not above TPS(1 shared) (10.00) at MPL 8" );
    ( "disksweep: stripe balanced",
      Disksweep.check,
      disksweep_data,
      set [ points; `I 2; `K "disks"; `I 0; `K "busy_s" ] (f 30.0),
      "disksweep: 4-disk stripe busy times unbalanced at MPL 8 (max 30.00s > \
       2x min 11.00s)" );
    ( "disksweep: point fields",
      Disksweep.check,
      disksweep_data,
      del [ points; `I 0; `K "label" ],
      "disksweep point missing field label" );
    ( "logsweep: 4 streams beat 1",
      Logsweep.check,
      logsweep_data,
      set [ points; `I 1; `K "tps" ] (f 10.0),
      "logsweep: TPS(4 streams) (10.00) not above TPS(1 stream) (10.00) at MPL \
       16" );
    ( "logsweep: force_p99 non-empty",
      Logsweep.check,
      logsweep_data,
      set [ points; `I 0; `K "force_p99" ] (Json.List []),
      "logsweep: force_p99 empty" );
    ( "logsweep: force_p99 entry fields",
      Logsweep.check,
      logsweep_data,
      del [ points; `I 1; `K "force_p99"; `I 2; `K "p99_s" ],
      "logsweep: force_p99 entry missing stream/p99_s" );
    ( "logsweep: point fields",
      Logsweep.check,
      logsweep_data,
      del [ points; `I 0; `K "dep_checks" ],
      "logsweep point missing field dep_checks" );
    ( "cleanersweep: accounting",
      Cleanersweep.check,
      cleanersweep_data,
      set [ points; `I 0; `K "cleans_observed" ] (i 2),
      "cleanersweep: segments_cleaned (3) != cleans_observed (2) at util 50% \
       mpl 8 (greedy)" );
    ( "cleanersweep: cost-benefit+seg retention beats greedy",
      Cleanersweep.check,
      cleanersweep_data,
      set [ points; `I 3; `K "tps" ] (f 7.0),
      "cleanersweep: cost-benefit+seg keeps 70.0% of its 50%-full TPS at 90% \
       full (MPL 8) — not above greedy's 70.0%" );
    ( "cleanersweep: point fields",
      Cleanersweep.check,
      cleanersweep_data,
      del [ points; `I 2; `K "write_cost" ],
      "cleanersweep point missing field write_cost" );
    ( "fig4: every bar commits",
      Fig4.check,
      fig4_data,
      set [ `K "bars"; `I 0; `K "tps_mean" ] (f 0.0),
      "fig4: ffs-user TPS (0.00) not positive" );
    ( "fig4: LFS beats read-optimized",
      Fig4.check,
      fig4_data,
      set [ `K "bars"; `I 1; `K "tps_mean" ] (f 7.0),
      "fig4: LFS/user TPS (7.00) not above read-optimized (7.28)" );
    ( "fig4: kernel keeps up with user",
      Fig4.check,
      fig4_data,
      set [ `K "bars"; `I 2; `K "tps_mean" ] (f 7.0),
      "fig4: kernel TPS (7.00) not above 0.85 x LFS/user (8.83)" );
    ( "fig4: all three bars",
      Fig4.check,
      fig4_data,
      del [ `K "bars"; `I 2; `K "setup" ],
      "fig4: data.bars must hold ffs-user, lfs-user and lfs-kernel" );
    ( "fig5: within 2%",
      Fig5.check,
      fig5_data,
      set [ `K "rows"; `I 1; `K "delta_pct" ] (f (-2.5)),
      "fig5: BIGFILE differs by -2.50% between kernels (limit 2%)" );
    ( "fig5: rows present",
      Fig5.check,
      fig5_data,
      set [ `K "rows" ] (Json.List []),
      "fig5: data.rows missing or empty" );
    ( "fig6: LFS scan slower",
      Fig6.check,
      fig6_data,
      set [ `K "lfs"; `K "scan_s" ] (f 90.0),
      "fig6: LFS scan (90.0s) not slower than read-optimized (100.0s)" );
    ( "fig6: read-optimized stays contiguous",
      Fig6.check,
      fig6_data,
      set [ `K "readopt"; `K "contiguity" ] (f 0.9),
      "fig6: read-optimized contiguity 0.9000 not above 0.95" );
    ( "fig7: crossover exists",
      Fig7.check,
      fig7_data,
      set [ `K "fig7"; `K "crossover_txns" ] Json.Null,
      "fig7: no crossover (one system dominates both workloads)" );
    ( "envelope: meta",
      Benchcheck.check,
      envelope_doc,
      del [ `K "meta" ],
      "missing meta object" );
    ( "envelope: meta.name",
      Benchcheck.check,
      envelope_doc,
      set [ `K "meta"; `K "name" ] (s ""),
      "meta.name missing or empty" );
    ( "envelope: meta.config",
      Benchcheck.check,
      envelope_doc,
      set [ `K "meta"; `K "config" ] (obj []),
      "meta.config missing or empty" );
    ( "envelope: data",
      Benchcheck.check,
      envelope_doc,
      del [ `K "data" ],
      "missing data object" );
    ( "envelope: some counter",
      Benchcheck.check,
      envelope_doc,
      del [ `K "stats"; `K "counters" ],
      "no counters anywhere in the document" );
    ( "envelope: non-zero counter",
      Benchcheck.check,
      envelope_doc,
      set [ `K "stats"; `K "counters"; `K "c" ] (i 0),
      "all counters are zero" );
    ( "envelope: some histogram",
      Benchcheck.check,
      envelope_doc,
      del [ `K "stats"; `K "histograms" ],
      "no histograms anywhere in the document" );
    ( "envelope: histogram fields",
      Benchcheck.check,
      envelope_doc,
      del [ `K "stats"; `K "histograms"; `K "h"; `K "p99" ],
      "histogram h missing field p99" );
    ( "envelope: experiment rules by meta.name",
      Benchcheck.check,
      set [ `K "data" ] fig7_data envelope_doc,
      (fun doc ->
        set [ `K "meta"; `K "name" ] (s "fig7")
          (set [ `K "data"; `K "fig7"; `K "crossover_txns" ] Json.Null doc)),
      "fig7: no crossover (one system dominates both workloads)" );
  ]

let test_rule (name, check, passing, mutate, message) () =
  Alcotest.(check (list string)) (name ^ ": passing block") [] (check passing);
  Alcotest.(check (list string))
    (name ^ ": one-field violation")
    [ message ]
    (check (mutate passing))

let test_not_json () =
  let path = Filename.temp_file "bench" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "{\"meta\":");
  let errors = Benchcheck.check_file path in
  Sys.remove path;
  Alcotest.(check (list string)) "unparsable artifact" [ "not valid JSON" ] errors

let test_stats_helpers () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Expcommon.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Expcommon.mean []);
  Alcotest.(check (float 1e-9)) "stdev constant" 0.0 (Expcommon.stdev [ 5.0; 5.0 ]);
  Alcotest.(check bool) "stdev positive" true (Expcommon.stdev [ 1.0; 3.0 ] > 0.0)

let () =
  Alcotest.run "tx_exp"
    [
      ( "figures",
        [
          Alcotest.test_case "fig4 shape" `Slow test_fig4_shape;
          Alcotest.test_case "fig4 deterministic" `Slow test_fig4_deterministic_per_seed;
          Alcotest.test_case "fig5 shape" `Slow test_fig5_shape;
          Alcotest.test_case "fig6 shape" `Slow test_fig6_shape;
          Alcotest.test_case "fig7 crossover math" `Quick test_fig7_crossover_math;
          Alcotest.test_case "fig7 no crossover" `Quick test_fig7_no_crossover;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "coalescing" `Slow test_coalescing_ablation_shape;
          Alcotest.test_case "test-and-set" `Slow test_tas_ablation_shape;
          Alcotest.test_case "cleanersweep" `Slow test_cleanersweep_shape;
          Alcotest.test_case "mplsweep" `Slow test_mplsweep;
          Alcotest.test_case "disksweep" `Slow test_disksweep;
          Alcotest.test_case "logsweep" `Slow test_logsweep;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "mean/stdev" `Quick test_stats_helpers;
          Alcotest.test_case "logsweep rejects lfs-kernel" `Quick
            test_logsweep_rejects_kernel;
        ] );
      ( "artifact rules",
        Alcotest.test_case "not valid JSON" `Quick test_not_json
        :: List.map
             (fun ((name, _, _, _, _) as rule) ->
               Alcotest.test_case name `Quick (test_rule rule))
             rules );
    ]
