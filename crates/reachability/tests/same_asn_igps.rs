//! `router eigrp 10` and `router igrp 10` on one router are two routing
//! processes in two instances, each with its own distribute lists. The
//! distribute list of the IGRP process alone restricts which external
//! routes enter the IGRP instance, whichever stanza the file lists first.

use netaddr::{Prefix, PrefixSet};
use nettopo::{ExternalAnalysis, LinkMap, Network};
use reachability::ReachAnalysis;
use routing_model::{Adjacencies, Instances, Processes, ProtoKind};

const EIGRP: &str = "\
router eigrp 10
 network 192.168.1.0
";

const IGRP: &str = "\
router igrp 10
 network 10.0.0.0
 distribute-list 1 in
";

/// One router whose Serial0 (IGRP) and Serial1 (EIGRP) both face the
/// outside world; only IGRP filters what it learns there.
fn config(first: &str, second: &str) -> String {
    format!(
        "hostname r1\n\
         interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
         interface Serial1\n ip address 192.168.1.1 255.255.255.252\n\
         {first}{second}\
         access-list 1 permit 172.20.0.0 0.0.255.255\n"
    )
}

/// The external routes entering the EIGRP and the IGRP instance.
fn entering(text: String) -> (PrefixSet, PrefixSet) {
    let net = Network::from_texts(vec![("config1".into(), text)]).unwrap();
    let links = LinkMap::build(&net);
    let external = ExternalAnalysis::build(&net, &links);
    let procs = Processes::extract(&net);
    let adj = Adjacencies::build(&net, &links, &procs, &external);
    let instances = Instances::compute(&procs, &adj);
    let reach = ReachAnalysis::new(&net, &procs, &adj, &instances);
    let of = |kind| {
        let inst = instances.list.iter().find(|i| i.kind == kind).unwrap();
        reach.external_routes_entering(inst.id)
    };
    (of(ProtoKind::Eigrp), of(ProtoKind::Igrp))
}

#[test]
fn igrp_distribute_list_is_not_read_from_eigrp_with_the_same_asn() {
    let everything = PrefixSet::all();
    let allowed = PrefixSet::from_prefix("172.20.0.0/16".parse::<Prefix>().unwrap());
    for (first, second) in [(EIGRP, IGRP), (IGRP, EIGRP)] {
        let (eigrp, igrp) = entering(config(first, second));
        assert_eq!(igrp, allowed, "IGRP instance, {first:?} listed first");
        assert_eq!(eigrp, everything, "EIGRP instance, {first:?} listed first");
    }
}
