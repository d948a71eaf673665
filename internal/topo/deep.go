package topo

// Deep topologies: the 256-1024-vCPU, 4-level machines used by the scaling
// experiments (`clof-figures -exp bigmachine`, the memsim
// `BenchmarkMachineScale*` rungs). The paper's evaluation stops at 128 CPUs;
// these machines extrapolate its topology shape one generation out —
// many-die sockets populated with big.LITTLE clusters — which is where a
// compositional lock's level choice matters most: four genuinely distinct
// latency domains (cluster, die, socket, system) and a thousand waiters to
// keep off the global lock.
//
// All three share the cluster/die/socket shape and differ only in socket
// and die count, so cross-size comparisons isolate the effect of scale:
//
//	DeepServer256:  2 sockets x 2 dies x 8 clusters x 8 cores =  256 vCPUs
//	DeepServer512:  2 sockets x 4 dies x 8 clusters x 8 cores =  512 vCPUs
//	DeepServer1024: 4 sockets x 4 dies x 8 clusters x 8 cores = 1024 vCPUs
//
// The clusters are modeled as cache groups (one L3 partition per cluster,
// the Kunpeng/DynamIQ arrangement) with no SMT, so CacheGroup is the lowest
// non-degenerate level and DeepHierarchy uses all four distinct levels:
// cache-group, numa (die), package (socket), system.

// DeepServer256 returns a 256-vCPU deep machine: 2 sockets x 2 dies x
// 8 clusters x 8 cores, Armv8 (LL/SC atomics).
func DeepServer256() *Machine {
	return &Machine{
		Name:           "armv8-deep-256",
		Arch:           ArmV8,
		Packages:       2,
		NUMAPerPackage: 2,
		GroupsPerNUMA:  8,
		CoresPerGroup:  8,
		ThreadsPerCore: 1,
	}
}

// DeepServer512 returns a 512-vCPU deep machine: 2 sockets x 4 dies x
// 8 clusters x 8 cores, Armv8.
func DeepServer512() *Machine {
	return &Machine{
		Name:           "armv8-deep-512",
		Arch:           ArmV8,
		Packages:       2,
		NUMAPerPackage: 4,
		GroupsPerNUMA:  8,
		CoresPerGroup:  8,
		ThreadsPerCore: 1,
	}
}

// DeepServer1024 returns a 1024-vCPU deep machine: 4 sockets x 4 dies x
// 8 clusters x 8 cores, Armv8.
func DeepServer1024() *Machine {
	return &Machine{
		Name:           "armv8-deep-1024",
		Arch:           ArmV8,
		Packages:       4,
		NUMAPerPackage: 4,
		GroupsPerNUMA:  8,
		CoresPerGroup:  8,
		ThreadsPerCore: 1,
	}
}

// DeepServers returns the three deep machines in ascending size, for sweeps.
func DeepServers() []*Machine {
	return []*Machine{DeepServer256(), DeepServer512(), DeepServer1024()}
}

// DeepHierarchy returns the canonical 4-level configuration for a deep
// machine: cache-group (cluster), NUMA (die), package (socket), system.
// It is valid for any machine on which those levels are distinct.
func DeepHierarchy(m *Machine) *Hierarchy {
	return MustHierarchy(m, CacheGroup, NUMA, Package, System)
}
