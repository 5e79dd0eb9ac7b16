type t = {
  readopt_tps : float;
  lfs_tps : float;
  readopt_scan_s : float;
  lfs_scan_s : float;
  crossover_txns : float option;
  series : (int * float * float) list;
}

let derive ~readopt_tps ~lfs_tps ~readopt_scan_s ~lfs_scan_s =
  let crossover =
    let dslope = (1.0 /. readopt_tps) -. (1.0 /. lfs_tps) in
    let dscan = lfs_scan_s -. readopt_scan_s in
    if dslope > 0.0 && dscan > 0.0 then Some (dscan /. dslope) else None
  in
  let samples =
    match crossover with
    | Some c ->
      List.map (fun f -> int_of_float (f *. c)) [ 0.0; 0.5; 1.0; 1.5; 2.0 ]
    | None -> [ 0; 50_000; 100_000; 150_000; 200_000 ]
  in
  {
    readopt_tps;
    lfs_tps;
    readopt_scan_s;
    lfs_scan_s;
    crossover_txns = crossover;
    series =
      List.map
        (fun n ->
          let fn = float_of_int n in
          ( n,
            (fn /. readopt_tps) +. readopt_scan_s,
            (fn /. lfs_tps) +. lfs_scan_s ))
        samples;
  }

let of_measurements ~(fig4 : Fig4.t) ~(fig6 : Fig6.t) =
  let tps setup =
    match
      List.find_opt (fun b -> b.Fig4.setup = setup) fig4.Fig4.bars
    with
    | Some b -> b.Fig4.tps_mean
    | None -> invalid_arg "Fig7: missing Figure 4 bar"
  in
  derive
    ~readopt_tps:(tps Txstack.Ffs_user)
    ~lfs_tps:(tps Txstack.Lfs_user)
    ~readopt_scan_s:fig6.Fig6.readopt.Fig6.scan_s
    ~lfs_scan_s:fig6.Fig6.lfs.Fig6.scan_s

let to_json t =
  Json.Obj
    [
      ("figure", Json.Str "fig7");
      ("readopt_tps", Json.Float t.readopt_tps);
      ("lfs_tps", Json.Float t.lfs_tps);
      ("readopt_scan_s", Json.Float t.readopt_scan_s);
      ("lfs_scan_s", Json.Float t.lfs_scan_s);
      ( "crossover_txns",
        match t.crossover_txns with
        | Some c -> Json.Float c
        | None -> Json.Null );
      ( "series",
        Json.List
          (List.map
             (fun (n, ro, lfs) ->
               Json.Obj
                 [
                   ("txns", Json.Int n);
                   ("readopt_total_s", Json.Float ro);
                   ("lfs_total_s", Json.Float lfs);
                 ])
             t.series) );
    ]

let print t =
  Expcommon.pp_header
    "Figure 7: Total elapsed time (transactions + one scan) vs transactions";
  Printf.printf
    "inputs: read-optimized %.2f TPS / scan %.0fs; LFS %.2f TPS / scan %.0fs\n\n"
    t.readopt_tps t.readopt_scan_s t.lfs_tps t.lfs_scan_s;
  Printf.printf "%12s %22s %16s %10s\n" "transactions" "read-optimized (s)"
    "LFS (s)" "winner";
  List.iter
    (fun (n, ro, lfs) ->
      Printf.printf "%12d %22.0f %16.0f %10s\n" n ro lfs
        (if lfs < ro then "LFS" else "read-opt"))
    t.series;
  (match t.crossover_txns with
  | Some c ->
    Printf.printf
      "\ncrossover: %.0f transactions per scan (%.1f hours at %.1f TPS)\n" c
      (c /. t.lfs_tps /. 3600.0)
      t.lfs_tps;
    Printf.printf
      "paper: 134,300 transactions (~2h40m at 13.6 TPS), at 10x this \
       database scale and a 100,000-transaction scan-aging run\n"
  | None ->
    print_endline
      "\nno crossover: one system dominates both workloads at this scale")

(* Figure 7 is derived; the artifact ships the source measurements (and
   their metrics) alongside so it stands on its own. *)
let artifact_json ~fig4 ~fig6 t =
  Json.Obj
    [
      ("fig7", to_json t);
      ( "sources",
        Json.Obj [ ("fig4", Fig4.to_json fig4); ("fig6", Fig6.to_json fig6) ] );
    ]

(* The paper's shape: the two systems' total-time lines cross. *)
let check data =
  match Option.bind (Json.member "fig7" data) (Json.member "crossover_txns") with
  | Some (Json.Int _ | Json.Float _) -> []
  | _ -> [ "fig7: no crossover (one system dominates both workloads)" ]
