/**
 * @file
 * Chaos invariant auditor.
 *
 * Fault plans mutate hosts in ways ordinary tests never exercise
 * (tiers dying mid-store, controllers crashing between ticks, whole
 * hosts being rebuilt). The auditor re-derives every piece of memory
 * accounting from the page table — the single source of truth — and
 * cross-checks the incremental counters against it after every fleet
 * epoch:
 *
 *  - per-cgroup: resident pages == LRU sizes (per list), zswap/swap
 *    byte counters == per-page storedBytes sums, lost pages == pages
 *    parked in Where::LOST, conservation: resident + stored + lost +
 *    on-filesystem == all live pages, and idleBreakdown() at the
 *    last whole second == the 1/2/5-minute counts of the live pages'
 *    lastAccess (catches a page change its generation counts missed;
 *    the first audit of a host starts them);
 *  - tier lists: every listed page carries PG_TIER_LISTED, belongs to
 *    the cgroup, maps to the tier it is listed under, and no page is
 *    on two lists; per-tier byte counters match;
 *  - global: the manager's resident-page counter == the LRU sums,
 *    every offload backend's usedBytes == the storedBytes its pages
 *    reference (the filesystem is exempt — file contents live there
 *    whether cached or not), and ramUsed() == the resident pages plus
 *    the usedBytes of every backend that stores in host DRAM.
 *
 * The checks change no simulated state and are O(pages); wire into
 * Fleet::enableInvariantAudit for continuous checking, or call
 * directly from tests.
 */

#pragma once

#include <string>
#include <vector>

#include "host/host.hpp"

namespace tmo::fault
{

/**
 * Audit one host's memory accounting against its page table.
 * @return One human-readable string per violated invariant; empty
 *         when every invariant holds.
 */
std::vector<std::string> auditHost(host::Host &machine);

} // namespace tmo::fault
