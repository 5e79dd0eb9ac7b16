(* Every value stored under [key] anywhere in the document. *)
let rec collect key j acc =
  match j with
  | Json.Obj kvs ->
    List.fold_left
      (fun acc (k, v) -> collect key v (if k = key then v :: acc else acc))
      acc kvs
  | Json.List l -> List.fold_left (fun acc v -> collect key v acc) acc l
  | _ -> acc

(* The (name, value) pairs of every [key] object in the document. *)
let entries key doc =
  List.concat_map
    (function Json.Obj kvs -> kvs | _ -> [])
    (collect key doc [])

let envelope doc =
  let meta =
    match Json.member "meta" doc with
    | None -> [ "missing meta object" ]
    | Some meta ->
      (match Json.member "name" meta with
      | Some (Json.Str n) when n <> "" -> []
      | _ -> [ "meta.name missing or empty" ])
      @
      (match Json.member "config" meta with
      | Some (Json.Obj (_ :: _)) -> []
      | _ -> [ "meta.config missing or empty" ])
  in
  let data = if Json.member "data" doc = None then [ "missing data object" ] else [] in
  let counters =
    match entries "counters" doc with
    | [] -> [ "no counters anywhere in the document" ]
    | cs when List.exists (function _, Json.Int n -> n > 0 | _ -> false) cs -> []
    | _ -> [ "all counters are zero" ]
  in
  let histograms =
    match entries "histograms" doc with
    | [] -> [ "no histograms anywhere in the document" ]
    | hs ->
      List.concat_map
        (fun (name, h) ->
          Expcommon.missing_fields ("histogram " ^ name)
            [ "count"; "p50"; "p95"; "p99"; "max"; "buckets" ]
            h)
        hs
  in
  meta @ data @ counters @ histograms

let checks =
  [
    ("fig4", Fig4.check);
    ("fig5", Fig5.check);
    ("fig6", Fig6.check);
    ("fig7", Fig7.check);
    ("mplsweep", Mplsweep.check);
    ("disksweep", Disksweep.check);
    ("logsweep", Logsweep.check);
    ("cleanersweep", Cleanersweep.check);
  ]

let check doc =
  let experiment =
    match Option.bind (Json.member "meta" doc) (Json.member "name") with
    | Some (Json.Str name) -> List.assoc_opt name checks
    | _ -> None
  in
  envelope doc
  @
  match experiment with
  | Some rules ->
    rules (Option.value ~default:Json.Null (Json.member "data" doc))
  | None -> []

let check_file path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  match Json.of_string_opt contents with
  | None -> [ "not valid JSON" ]
  | Some doc -> check doc
