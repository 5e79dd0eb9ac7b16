let order ~head reqs =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) reqs in
  let ahead, behind = List.partition (fun (b, _) -> b >= head) sorted in
  ahead @ behind
