type bar = {
  setup : Txstack.backend;
  tps_mean : float;
  tps_sd : float;
  per_seed : float list;
  cleaner_stall_mean_s : float;
  paper_tps : float option;
  runs : Expcommon.tpcb_run list;
}

type t = { bars : bar list; scale : Tpcb.scale; txns : int; config : Config.t }

let default_tps_scale = 4

let paper_value = function
  | Txstack.Ffs_user -> Some 12.3
  | Txstack.Lfs_user -> Some 13.6
  | Txstack.Lfs_kernel -> None (* "comparable to user level" *)

let run ?config ?(tps_scale = default_tps_scale) ?(txns = 20_000)
    ?(seeds = [ 1; 2; 3 ]) () =
  let config = Expcommon.tps_config ?config tps_scale in
  let scale = Tpcb.scale_for_tps tps_scale in
  let bar setup =
    let runs =
      List.map
        (fun seed -> Expcommon.run_tpcb ~config ~scale ~txns ~seed setup)
        seeds
    in
    let tps = List.map (fun r -> r.Expcommon.result.Tpcb.tps) runs in
    {
      setup;
      tps_mean = Expcommon.mean tps;
      tps_sd = Expcommon.stdev tps;
      per_seed = tps;
      cleaner_stall_mean_s =
        Expcommon.mean (List.map (fun r -> r.Expcommon.cleaner_stall_s) runs);
      paper_tps = paper_value setup;
      runs;
    }
  in
  {
    bars =
      List.map bar
        [ Txstack.Ffs_user; Txstack.Lfs_user; Txstack.Lfs_kernel ];
    scale;
    txns;
    config;
  }

let to_json t =
  Json.Obj
    [
      ("figure", Json.Str "fig4");
      ("scale", Expcommon.scale_json t.scale);
      ("txns", Json.Int t.txns);
      ( "bars",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("setup", Json.Str (Txstack.name b.setup));
                   ("tps_mean", Json.Float b.tps_mean);
                   ("tps_sd", Json.Float b.tps_sd);
                   ( "per_seed",
                     Json.List (List.map (fun v -> Json.Float v) b.per_seed) );
                   ("cleaner_stall_mean_s", Json.Float b.cleaner_stall_mean_s);
                   ( "paper_tps",
                     match b.paper_tps with
                     | Some v -> Json.Float v
                     | None -> Json.Null );
                   ("runs", Json.List (List.map Expcommon.tpcb_run_json b.runs));
                 ])
             t.bars) );
    ]

let print t =
  Expcommon.pp_header
    (Printf.sprintf
       "Figure 4: Transaction Performance Summary (TPC-B, %d accounts, %d txns)"
       t.scale.Tpcb.accounts t.txns);
  Printf.printf "%-30s %10s %8s %14s %10s\n" "configuration" "TPS" "sd"
    "cleaner stall" "paper TPS";
  List.iter
    (fun b ->
      Printf.printf "%-30s %10.2f %8.2f %13.1fs %10s\n"
        (Txstack.label b.setup)
        b.tps_mean b.tps_sd b.cleaner_stall_mean_s
        (match b.paper_tps with Some v -> Printf.sprintf "%.1f" v | None -> "~user"))
    t.bars;
  match t.bars with
  | [ ro; lu; lk ] ->
    Printf.printf
      "\nshape: LFS/user vs read-optimized: %+.1f%% (paper: +10.6%%); \
       kernel vs user on LFS: %+.1f%% (paper: comparable, kernel >= user)\n"
      (100.0 *. ((lu.tps_mean /. ro.tps_mean) -. 1.0))
      (100.0 *. ((lk.tps_mean /. lu.tps_mean) -. 1.0))
  | _ -> ()

(* The paper's shape: every system commits transactions, user-level LFS
   beats the read-optimized system, and the embedded manager keeps up with
   user level (within 15 %). *)
let check data =
  let num = Expcommon.num in
  let bar setup =
    Expcommon.find_point
      [ ("setup", Json.Str (Txstack.name setup)) ]
      (Expcommon.points ~key:"bars" data)
  in
  match
    (bar Txstack.Ffs_user, bar Txstack.Lfs_user, bar Txstack.Lfs_kernel)
  with
  | Some ro, Some lu, Some lk ->
    let tps = num "tps_mean" in
    List.filter_map
      (fun (setup, b) ->
        if tps b > 0.0 then None
        else
          Some
            (Printf.sprintf "fig4: %s TPS (%.2f) not positive"
               (Txstack.name setup) (tps b)))
      [
        (Txstack.Ffs_user, ro);
        (Txstack.Lfs_user, lu);
        (Txstack.Lfs_kernel, lk);
      ]
    @ (if tps lu > tps ro then []
       else
         [
           Printf.sprintf
             "fig4: LFS/user TPS (%.2f) not above read-optimized (%.2f)"
             (tps lu) (tps ro);
         ])
    @
    if tps lk > 0.85 *. tps lu then []
    else
      [
        Printf.sprintf
          "fig4: kernel TPS (%.2f) not above 0.85 x LFS/user (%.2f)" (tps lk)
          (tps lu);
      ]
  | _ -> [ "fig4: data.bars must hold ffs-user, lfs-user and lfs-kernel" ]
