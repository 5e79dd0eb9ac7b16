type row = {
  benchmark : string;
  normal_s : float;
  txn_kernel_s : float;
  delta_pct : float;
  normal_stats : Stats.t;
  txn_kernel_stats : Stats.t;
}

type t = { rows : row list; config : Config.t }

let elapsed_of phases = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 phases

(* All three benchmarks run on LFS (the modified operating system), with
   and without the embedded transaction manager compiled in. *)
let measure config bench =
  let m = Txstack.machine Txstack.Lfs_user config in
  (bench m, m.Txstack.stats)

let lfs_vfs m = Txstack.fs_vfs (Txstack.format m)

let andrew_bench (m : Txstack.machine) =
  let v = lfs_vfs m in
  let t0 = Clock.now m.clock in
  ignore
    (Workloads.andrew m.clock m.stats m.cfg v (Rng.create ~seed:5)
       Workloads.default_andrew);
  Clock.now m.clock -. t0

let bigfile_bench (m : Txstack.machine) =
  let v = lfs_vfs m in
  elapsed_of
    (Workloads.bigfile m.clock m.stats m.cfg v (Rng.create ~seed:5)
       Workloads.default_bigfile)

let user_tp_bench tps_scale txns (m : Txstack.machine) =
  let scale = Tpcb.scale_for_tps tps_scale in
  let rng = Rng.create ~seed:5 in
  let stack, db, _ = Txstack.boot_tpcb ~wal:Expcommon.wal ~scale ~rng m in
  (Tpcb.run m.clock m.stats m.cfg db stack.txn ~rng ~n:txns).Tpcb.elapsed_s

let run ?config ?(tps_scale = 2) () =
  let config = Expcommon.tps_config ?config tps_scale in
  let with_kernel ktxn =
    { config with Config.fs = { config.Config.fs with kernel_txn = ktxn } }
  in
  let row benchmark bench =
    let normal_s, normal_stats = measure (with_kernel false) bench in
    let txn_kernel_s, txn_kernel_stats = measure (with_kernel true) bench in
    {
      benchmark;
      normal_s;
      txn_kernel_s;
      delta_pct = 100.0 *. ((txn_kernel_s /. normal_s) -. 1.0);
      normal_stats;
      txn_kernel_stats;
    }
  in
  {
    rows =
      [
        row "ANDREW" andrew_bench;
        row "BIGFILE" bigfile_bench;
        row "USER-TP" (user_tp_bench tps_scale 3_000);
      ];
    config;
  }

let to_json t =
  Json.Obj
    [
      ("figure", Json.Str "fig5");
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("benchmark", Json.Str r.benchmark);
                   ("normal_s", Json.Float r.normal_s);
                   ("txn_kernel_s", Json.Float r.txn_kernel_s);
                   ("delta_pct", Json.Float r.delta_pct);
                   ("normal_stats", Stats.to_json r.normal_stats);
                   ("txn_kernel_stats", Stats.to_json r.txn_kernel_stats);
                 ])
             t.rows) );
    ]

let print t =
  Expcommon.pp_header
    "Figure 5: Non-transaction performance, normal vs transaction kernel";
  Printf.printf "%-12s %14s %18s %10s %12s\n" "benchmark" "normal (s)"
    "txn kernel (s)" "delta" "paper";
  List.iter
    (fun r ->
      Printf.printf "%-12s %14.1f %18.1f %+9.2f%% %12s\n" r.benchmark
        r.normal_s r.txn_kernel_s r.delta_pct "within 1-2%")
    t.rows

(* The paper's shape: the embedded manager costs non-transaction work
   within 1-2 %. *)
let check data =
  match Expcommon.points ~key:"rows" data with
  | [] -> [ "fig5: data.rows missing or empty" ]
  | rows ->
    List.filter_map
      (fun r ->
        let d = Expcommon.num "delta_pct" r in
        if Float.abs d < 2.0 then None
        else
          Some
            (Printf.sprintf "fig5: %s differs by %+.2f%% between kernels (limit 2%%)"
               (match Json.member "benchmark" r with
               | Some (Json.Str b) -> b
               | _ -> "?")
               d))
      rows
