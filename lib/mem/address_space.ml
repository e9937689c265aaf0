open Iw_hw

type regime = Identity_large | Demand_paged | Carat_guarded

type t = { plat : Platform.t; regime : regime; tlb : Tlb.t }

let create plat regime =
  let page_kb =
    match regime with
    | Identity_large | Carat_guarded -> plat.Platform.large_page_size_kb
    | Demand_paged -> plat.Platform.page_size_kb
  in
  { plat; regime; tlb = Tlb.create plat ~page_kb }

let regime t = t.regime

let page_faults t profile =
  match t.regime with
  | Identity_large | Carat_guarded -> 0
  | Demand_paged -> Tlb.first_touch_faults t.tlb profile

let overhead_cycles t profile =
  match t.regime with
  | Carat_guarded -> 0
  | Identity_large ->
      Tlb.access_overhead_cycles t.tlb t.plat profile ~demand_paged:false
  | Demand_paged ->
      Tlb.access_overhead_cycles t.tlb t.plat profile ~demand_paged:true
